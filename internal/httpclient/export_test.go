package httpclient

// RetainBodies switches the robot between counting the bodies nothing
// reads (false, the shipped behaviour) and keeping every body, as it did
// before; the external kept-versus-counted test compares the two.
func RetainBodies(on bool) { retainBodies = on }
