// Package core implements the paper's measurement analysis — its primary
// contribution. Given a mobility trace (a τ-sampled sequence of avatar
// positions on one land), it computes:
//
//   - the temporal contact metrics of §3.1: contact time (CT),
//     inter-contact time (ICT), and first-contact time (FT) for a given
//     communication range r (Fig. 1);
//   - the line-of-sight network metrics of §3.2: node degree, network
//     diameter of the largest connected component, and clustering
//     coefficient (Fig. 2);
//   - zone occupation over L×L-metre cells (Fig. 3);
//   - trip metrics: travel length, effective travel time, and travel
//     (login) time (Fig. 4).
//
// All metrics are computed from the sampled trace exactly as a trace
// consumer would — not from simulator ground truth — so the pipeline works
// identically on traces produced by the in-process collector, the network
// crawler, or the sensor architecture.
//
// The integer-valued result distributions (contact metrics, degrees,
// diameters, zone occupancy) are held as weighted frequency accumulators
// (stats.Weighted): memory is O(distinct values) rather than O(samples),
// and every ECDF, quantile, and figure they yield is bit-identical to the
// expanded multiset's.
package core

import (
	"cmp"
	"fmt"

	"slmob/internal/geom"
	"slmob/internal/graph"
	"slmob/internal/stats"
	"slmob/internal/trace"
)

// pairKey identifies an unordered avatar pair, normalised A < B.
type pairKey struct {
	A, B trace.AvatarID
}

func makePair(a, b trace.AvatarID) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{A: a, B: b}
}

// compare orders pair keys by A, then B — the order checkpoints write
// pairs in.
func (k pairKey) compare(o pairKey) int {
	if c := cmp.Compare(k.A, o.A); c != 0 {
		return c
	}
	return cmp.Compare(k.B, o.B)
}

// ContactSet is the result of contact extraction at one communication
// range, following the methodology of Chaintreau et al. that the paper
// adopts: censored intervals are counted but excluded from the
// distributions.
type ContactSet struct {
	// Range is the communication range r in metres.
	Range float64 //lint:allow acc construction-time identity; Reset preserves it and mergeFrom requires equal ranges
	// Tau is the trace's sampling period.
	Tau int64 //lint:allow acc construction-time identity; Reset preserves it and mergeFrom requires equal taus
	// CT holds the distribution of completed contact durations in seconds.
	CT *stats.Weighted
	// ICT holds the distribution of inter-contact gaps in seconds.
	ICT *stats.Weighted
	// FT holds the distribution of per-user first-contact waiting times in
	// seconds (the wait from a user's first appearance to their first
	// neighbour ever).
	FT *stats.Weighted
	// Censored counts contact intervals dropped because they were in
	// progress at a trace boundary.
	Censored int
	// NeverContacted counts users who never saw a neighbour at this range.
	NeverContacted int
	// Pairs counts distinct pairs that had at least one contact.
	Pairs int
}

// newContactSet returns an empty ContactSet with initialised
// distributions.
func newContactSet(r float64, tau int64) *ContactSet {
	return &ContactSet{
		Range: r,
		Tau:   tau,
		CT:    stats.NewWeighted(),
		ICT:   stats.NewWeighted(),
		FT:    stats.NewWeighted(),
	}
}

// Reset empties the accumulator while keeping its identity (Range, Tau)
// and every internal allocation — the resettable leg of the Accumulator
// contract, used to recycle window sinks.
func (cs *ContactSet) Reset() {
	cs.CT.Reset()
	cs.ICT.Reset()
	cs.FT.Reset()
	cs.Censored = 0
	cs.NeverContacted = 0
	cs.Pairs = 0
}

// mergeFrom folds another window's events into cs. Distributions are
// multisets and counters are event counts, so merging windows in any
// order reproduces the whole-trace ContactSet exactly.
func (cs *ContactSet) mergeFrom(o *ContactSet) {
	cs.CT.Merge(o.CT)
	cs.ICT.Merge(o.ICT)
	cs.FT.Merge(o.FT)
	cs.Censored += o.Censored
	cs.NeverContacted += o.NeverContacted
	cs.Pairs += o.Pairs
}

// Clone returns an independent deep copy.
func (cs *ContactSet) Clone() *ContactSet {
	out := newContactSet(cs.Range, cs.Tau)
	out.mergeFrom(cs)
	return out
}

// ExtractContacts computes the ContactSet of a trace at range r. Seated
// samples are excluded: a seated avatar reports no usable position.
//
// A contact covering exactly one snapshot has duration tau (the pair was
// within range for at least an instant and at most 2τ; τ is the unbiased
// choice and matches the paper's 10-second granularity floor). A contact
// seen on snapshots [s, e] has duration e - s + tau. The inter-contact
// time between a contact ending at e and the next starting at s' is
// s' - e.
//
// The batch path drives exactly the streaming contactTracker over a
// workspace-built proximity graph per snapshot, so batch and streaming
// results agree by construction.
func ExtractContacts(tr *trace.Trace, r float64) (*ContactSet, error) {
	if r <= 0 {
		return nil, fmt.Errorf("core: non-positive range %v", r)
	}
	if tr.Tau <= 0 {
		return nil, fmt.Errorf("core: trace has non-positive tau")
	}
	ct := newContactTracker(tr.Tau)
	ct.bind(newContactSet(r, tr.Tau))
	ws := graph.NewWorkspace()
	firstSeen := make(map[trace.AvatarID]int64)
	var firstSnapT int64
	if len(tr.Snapshots) > 0 {
		firstSnapT = tr.Snapshots[0].T
	}
	var sc snapScratch
	for _, snap := range tr.Snapshots {
		sc.fill(snap, firstSeen, false)
		ws.ApplyPositions(sc.gids, sc.positions, r)
		ct.observe(sc.ids, sc.fsT, ws, snap.T, snap.T == firstSnapT)
	}
	return ct.finish(len(firstSeen)), nil
}

// snapScratch collects one snapshot's live (non-seated) avatars into
// reusable id/position buffers, recording first appearances on the way.
// fsT carries each live avatar's first-seen time, aligned with ids, so
// the contact tracker can emit first-contact waits at the moment they
// resolve.
type snapScratch struct {
	ids       []trace.AvatarID
	positions []geom.Vec
	fsT       []int64
	// gids mirrors ids as raw uint64s — the stable identity slice the
	// incremental graph builder (Workspace.ApplyPositions) diffs across
	// snapshots.
	gids []uint64
}

// fill resets the scratch to the snapshot's live avatars and returns the
// number of avatars first seen in this snapshot. zeroSeated additionally
// treats exact-origin positions as seated (the streaming equivalent of
// NormalizeSeated).
//
//slmob:hotpath
func (sc *snapScratch) fill(snap trace.Snapshot, firstSeen map[trace.AvatarID]int64, zeroSeated bool) (newSeen int) {
	sc.ids = sc.ids[:0]
	sc.positions = sc.positions[:0]
	sc.fsT = sc.fsT[:0]
	sc.gids = sc.gids[:0]
	for _, s := range snap.Samples {
		fs := snap.T
		if firstSeen != nil {
			if t0, ok := firstSeen[s.ID]; ok {
				fs = t0
			} else {
				firstSeen[s.ID] = snap.T
				newSeen++
			}
		}
		if s.Seated || (zeroSeated && s.Pos.IsZero()) {
			continue
		}
		sc.ids = append(sc.ids, s.ID)
		sc.positions = append(sc.positions, s.Pos)
		sc.fsT = append(sc.fsT, fs)
		sc.gids = append(sc.gids, uint64(s.ID))
	}
	return newSeen
}
