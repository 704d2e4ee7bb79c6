package main

import "composable/internal/deadapi/testhelper"

func runHelper() { testhelper.Run() }
