package sim

// SchedulerSnapshot is a restorable capture of a scheduler: its clock, the
// event heap (including each queued event's callback, label and
// generation), the free list and the processed/sequence counters.
type SchedulerSnapshot struct {
	s   *Scheduler
	cap *Capture
}

// Snapshot captures the scheduler's complete state. Events scheduled after
// the snapshot are dropped by Restore; events that ran after the snapshot
// are re-queued exactly as they were, and EventRefs issued before the
// snapshot become valid again (generations are restored with the events).
func (s *Scheduler) Snapshot() *SchedulerSnapshot {
	return &SchedulerSnapshot{s: s, cap: CaptureRoots(s)}
}

// Restore rolls the scheduler back to the snapshot. The snapshot must have
// been taken from this scheduler; restoring a foreign snapshot panics,
// because queued callbacks close over their own world's object graph.
func (s *Scheduler) Restore(snap *SchedulerSnapshot) {
	if snap.s != s {
		panic("sim: restoring a snapshot taken from a different scheduler")
	}
	snap.cap.Restore()
}

// RNGSnapshot is a restorable capture of one random stream's position.
type RNGSnapshot struct {
	g   *RNG
	cap *Capture
}

// Snapshot captures the stream's exact position: the underlying generator
// state is saved, so draws after Restore replay the identical sequence the
// stream produced after the snapshot was taken.
func (g *RNG) Snapshot() *RNGSnapshot {
	return &RNGSnapshot{g: g, cap: CaptureRoots(g)}
}

// Restore rolls the stream back to the snapshot position. The snapshot
// must have been taken from this stream.
func (g *RNG) Restore(snap *RNGSnapshot) {
	if snap.g != g {
		panic("sim: restoring a snapshot taken from a different RNG")
	}
	snap.cap.Restore()
}

// Reseed re-initialises the stream in place to the exact state NewRNG(seed)
// would produce, without replacing the *RNG object — every component
// holding this stream sees the new sequence. This is how a forked world is
// given fresh per-trial randomness after a snapshot restore. The generator
// is seeded lazily, on the stream's first draw.
func (g *RNG) Reseed(seed uint64) {
	g.seed = seed
	g.stale = true
}

// Rekey reseeds the stream with a seed derived from its own current seed
// and salt (ChildNSeed with the name "rekey"). Because the derivation
// depends only on the stream's identity — its construction seed — and the
// salt, rekeying every stream of a world gives a deterministic result
// independent of the order the streams are visited in.
func (g *RNG) Rekey(salt uint64) {
	g.Reseed(ChildNSeed(g.seed, "rekey", salt))
}
