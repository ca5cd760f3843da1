package cfs

// UseRebuildOracle switches a freshly built scheduler to the rebuild
// oracle: every tick recomputes the whole allocation and walks every
// group, with no memo, no dirty set and no deferred accounting. The
// mirror tests, FuzzRepairMirror, and the host-level fault-mix
// differential hold the memoized tick protocol against it. It lives in a
// test file so that no production configuration can reach it. It panics
// once the scheduler holds groups or has ticked.
func UseRebuildOracle(s *Scheduler) {
	if len(s.groups) > 0 || s.ticks > 0 {
		panic("cfs: UseRebuildOracle on a scheduler already in use")
	}
	s.rebuildOracle = true
}

// newOracleScheduler returns a scheduler running the rebuild oracle.
func newOracleScheduler(ncpu int) *Scheduler {
	s := NewScheduler(ncpu)
	UseRebuildOracle(s)
	return s
}

// Throttled reports whether a bandwidth limit (the group's own, or its
// parent's) capped the group's allocation in the most recent tick: the
// per-tick flag behind ThrottledTime, which the mirror tests compare.
func (g *Group) Throttled() bool { return g.acct().flags&acctThrottled != 0 }
