package serve

import "time"

// WithOutboxFrames returns c with each session's outbox bounded to n
// frames instead of 64: the lifecycle, soak and hardening tests shrink it
// to reach backpressure quickly.
func (c Config) WithOutboxFrames(n int) Config {
	c.outboxFrames = n
	return c
}

// WithWriteStallTimeout returns c with the write-stall budget d instead
// of 60s; a negative d disables the check.
func (c Config) WithWriteStallTimeout(d time.Duration) Config {
	c.writeStall = d
	return c
}
