package tune

// WarmStart puts a fresh controller in mode m before its first window, as
// if it had already escalated there, so a test can start a lock contended
// without waiting out the escalation ramp.
func WarmStart(c *Controller, m Mode) { c.mode = m }
