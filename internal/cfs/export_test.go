package cfs

// UseEagerProtocol switches a freshly built scheduler from dirty-set
// repair to the eager invalidate-and-rebuild memo protocol: the oracle
// the mirror tests, FuzzRepairMirror, and the host-level fault-mix
// differential hold repair against. It lives in a test file so that no
// production configuration can reach the eager path. It panics once the
// scheduler holds groups or has ticked, because repair state built up to
// that point has no eager equivalent.
func UseEagerProtocol(s *Scheduler) {
	if len(s.groups) > 0 || s.ticks > 0 {
		panic("cfs: UseEagerProtocol on a scheduler already in use")
	}
	s.eager = true
}

// newEagerScheduler returns a scheduler running the eager oracle.
func newEagerScheduler(ncpu int) *Scheduler {
	s := NewScheduler(ncpu)
	UseEagerProtocol(s)
	return s
}
