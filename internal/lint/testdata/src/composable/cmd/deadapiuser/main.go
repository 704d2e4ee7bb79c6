// Command deadapiuser is the deadapi golden package's caller.
package main

import "composable/internal/deadapi"

func main() {
	deadapi.Used()
	deadapi.Drive(deadapi.Machine{})
	deadapi.NewSink().Write(nil)
}
