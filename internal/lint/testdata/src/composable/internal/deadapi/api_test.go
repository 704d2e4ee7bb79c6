package deadapi

func useFromTest() { TestOnly() }
