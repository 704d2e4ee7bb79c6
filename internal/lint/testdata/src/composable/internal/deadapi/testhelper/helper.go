// Package testhelper is imported only by a test file, so it is test code:
// deadapi neither counts its references nor judges its API.
package testhelper

import "composable/internal/deadapi"

// Run is uncalled outside tests, and not flagged: it is test code.
func Run() { deadapi.HelperOnly() }
