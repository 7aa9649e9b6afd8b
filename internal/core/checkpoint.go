package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"slmob/internal/snap"
	"slmob/internal/stats"
	"slmob/internal/trace"
)

// sortedKeys returns the map's keys in ascending order. Every map that
// reaches a snap.Writer is iterated through this: Go randomises map
// iteration order per run, and checkpoint bytes must be reproducible —
// equal states must serialise identically (the determinism analyzer
// enforces exactly this).
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Checkpointing: the serializable leg of the Accumulator contract. A
// checkpoint is a versioned binary snapshot (internal/snap) of the FULL
// analyzer state — configuration, stream cursor, every state machine
// (pair tables mid-contact, open sessions, first-seen maps) and every
// event sink — so a killed run restores and, re-fed the remainder of the
// stream, finishes with a digest identical to an uninterrupted run. The
// golden checkpoint fixture pins exactly that.
//
// Payload kinds within the snap container:
//
//	kindAnalyzer  — a plain Analyzer
//	kindWindowed  — a WindowedAnalyzer (window state + collected series
//	                + the embedded analyzer)
//
// Corrupted, truncated, or version-skewed snapshots return a typed
// *snap.Error, never panic — pinned by FuzzRestoreAnalyzer.

// Payload kinds (the snap container's kind field).
const (
	KindAnalyzer uint64 = 1
	KindWindowed uint64 = 2
	// KindWorldSource and KindRun are reserved for the world package's
	// simulation state and the façade's combined run checkpoint.
	KindWorldSource uint64 = 3
	KindRun         uint64 = 4
	// KindAnalysis is a standalone completed Analysis — the live query
	// service's wire format (EncodeAnalysis / DecodeAnalysis).
	KindAnalysis uint64 = 5
)

// checkpointVersion guards the analyzer and windowed checkpoint payload
// layout (bumped independently of the snap container version). Version 2
// writes pairs in key order, without the derived last-seen time. The
// analysis wire payload keeps its own analysisVersion (wire.go): its
// layout did not change at version 2, and its bytes are what analysis
// digests hash.
const checkpointVersion = 2

// maxZoneGridEdge bounds the decoded zone grid: no real land or estate
// region needs more cells per edge, and a corrupted snapshot must not
// dictate the allocation.
const maxZoneGridEdge = 1 << 12

func finitePositive(v float64) bool {
	return v > 0 && v <= math.MaxFloat64
}

// Checkpoint serialises the analyzer's complete state. It must be taken
// between Observe calls (never concurrently with one) and fails after
// Finish.
func (a *Analyzer) Checkpoint() ([]byte, error) {
	if a.finished {
		return nil, fmt.Errorf("core: Checkpoint after Finish")
	}
	w := snap.NewWriter(KindAnalyzer)
	w.Uvarint(checkpointVersion)
	a.encodeState(w)
	return w.Finish(), nil
}

// ResumePoint returns the time of the last observed snapshot — the point
// a resumed Consume skips through — or 0 before any observation.
func (a *Analyzer) ResumePoint() int64 {
	if !a.started {
		return 0
	}
	return a.lastT
}

// RestoreAnalyzer rebuilds an analyzer from a Checkpoint blob. The
// restored analyzer skips already-observed snapshots in Consume, so
// feeding it the original source from the start resumes exactly where
// the checkpoint was taken.
func RestoreAnalyzer(data []byte) (*Analyzer, error) {
	r, err := snap.NewReader(data)
	if err != nil {
		return nil, err
	}
	if r.Kind() != KindAnalyzer {
		return nil, &snap.Error{Kind: snap.KindMalformed, Msg: fmt.Sprintf("payload kind %d is not an analyzer checkpoint", r.Kind())}
	}
	if v := r.Uvarint(); r.Err() == nil && v != checkpointVersion {
		return nil, &snap.Error{Kind: snap.KindVersion, Msg: fmt.Sprintf("analyzer checkpoint version %d, want %d", v, checkpointVersion)}
	}
	a, err := decodeAnalyzer(r)
	if err != nil {
		return nil, err
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return a, nil
}

// Checkpoint serialises the windowed analyzer: its window cursor, the
// collected series, and the embedded analyzer. A hook registered with
// OnWindow is not serialised — re-register it after restore, before
// resuming. Windows that complete after the checkpoint but before a
// crash are re-delivered on the resumed run (at-least-once semantics).
//
// In collection mode every checkpoint re-serialises the whole collected
// series, so periodic checkpointing of a long, finely windowed run
// grows each write with the window count; prefer hook mode (OnWindow)
// there — it keeps the checkpoint to the live state machines alone.
func (wa *WindowedAnalyzer) Checkpoint() ([]byte, error) {
	if wa.finished {
		return nil, fmt.Errorf("core: Checkpoint after Finish")
	}
	w := snap.NewWriter(KindWindowed)
	w.Uvarint(checkpointVersion)
	w.Varint(wa.window)
	w.Bool(wa.started)
	w.Varint(wa.curIdx)
	w.Bool(wa.hook != nil || wa.needHook)
	w.Varint(wa.series.First)
	w.Uvarint(uint64(len(wa.series.Windows)))
	for _, an := range wa.series.Windows {
		encodeAnalysis(w, an)
	}
	wa.a.encodeState(w)
	return w.Finish(), nil
}

// ResumePoint mirrors Analyzer.ResumePoint.
func (wa *WindowedAnalyzer) ResumePoint() int64 { return wa.a.ResumePoint() }

// RestoreWindowedAnalyzer rebuilds a windowed analyzer from its
// Checkpoint blob. If the checkpoint was taken in hook mode the restored
// analyzer refuses to run (RequiresHook reports true) until the real
// hook is re-registered with OnWindow — otherwise every resumed window
// would silently vanish into a placeholder.
func RestoreWindowedAnalyzer(data []byte) (*WindowedAnalyzer, error) {
	r, err := snap.NewReader(data)
	if err != nil {
		return nil, err
	}
	if r.Kind() != KindWindowed {
		return nil, &snap.Error{Kind: snap.KindMalformed, Msg: fmt.Sprintf("payload kind %d is not a windowed checkpoint", r.Kind())}
	}
	if v := r.Uvarint(); r.Err() == nil && v != checkpointVersion {
		return nil, &snap.Error{Kind: snap.KindVersion, Msg: fmt.Sprintf("windowed checkpoint version %d, want %d", v, checkpointVersion)}
	}
	window := r.Varint()
	started := r.Bool()
	curIdx := r.Varint()
	hooked := r.Bool()
	first := r.Varint()
	nw := r.Count(1)
	if err := r.Err(); err != nil {
		return nil, err
	}
	if window <= 0 {
		return nil, &snap.Error{Kind: snap.KindMalformed, Msg: "non-positive window"}
	}
	// Observe forbids negative snapshot times, so a legitimate window
	// cursor is never negative; a crafted one would make the first
	// resumed Observe emit empty windows until it catches up.
	if started && (curIdx < 0 || curIdx < first) {
		return nil, &snap.Error{Kind: snap.KindMalformed, Msg: "window cursor out of range"}
	}
	windows := make([]*Analysis, 0, nw)
	for i := 0; i < nw; i++ {
		an, err := decodeAnalysis(r)
		if err != nil {
			return nil, err
		}
		windows = append(windows, an)
	}
	a, err := decodeAnalyzer(r)
	if err != nil {
		return nil, err
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	wa := &WindowedAnalyzer{
		a:       a,
		window:  window,
		started: started,
		curIdx:  curIdx,
		series:  &WindowSeries{Land: a.land, Window: window, First: first, Windows: windows},
	}
	wa.spare = a.newSink()
	wa.needHook = hooked
	return wa, nil
}

// ---- Analyzer body ----

// encodeState writes everything NewAnalyzer cannot reconstruct: the
// configuration, the stream cursor, the state machines, and the current
// sink.
func (a *Analyzer) encodeState(w *snap.Writer) {
	w.String(a.land)
	w.Varint(a.tau)
	// Configuration (already default-filled).
	w.Uvarint(uint64(len(a.cfg.Ranges)))
	for _, r := range a.cfg.Ranges {
		w.F64(r)
	}
	w.F64(a.cfg.ZoneSize)
	w.F64(a.cfg.MoveEps)
	w.Varint(a.cfg.SessionGap)
	w.F64(a.cfg.LandSize)
	w.Bool(a.cfg.TreatZeroAsSeated)
	w.Varint(int64(a.cfg.RangeWorkers))
	w.Varint(a.cfg.Window)
	// cfg.DisableIncremental is intentionally not serialised: it selects a
	// build strategy, not analysis state — the two strategies are
	// bit-identical — and the restored process chooses its own. The graph
	// workspaces' incremental state is likewise not serialised; a restored
	// analyzer starts with fresh workspaces, whose first ApplyPositions is
	// a full rebuild, so kill-and-resume stays digest-identical by
	// construction.
	// Stream cursor.
	w.Bool(a.started)
	w.Varint(a.firstT)
	w.Varint(a.lastT)
	// Current sink counters.
	s := a.cur
	w.Varint(int64(s.snapshots))
	w.Varint(s.start)
	w.Varint(s.end)
	w.Varint(int64(s.totalSamples))
	w.Varint(int64(s.maxConcurrent))
	w.Varint(int64(s.newUsers))
	// First appearances, in ascending avatar order for reproducible
	// bytes.
	w.Uvarint(uint64(len(a.firstSeenT)))
	for _, id := range sortedKeys(a.firstSeenT) {
		w.Uvarint(uint64(id))
		w.Varint(a.firstSeenT[id])
	}
	// Per-range state machines and sinks.
	for i, rs := range a.ranges {
		encodeTracker(w, rs.ct)
		encodeContactSet(w, s.contacts[i])
		encodeNetMetrics(w, s.nets[i])
	}
	s.zones.Encode(w)
	// Trips: open sessions (ascending avatar order) then the window's
	// closed sessions.
	w.Uvarint(uint64(len(a.trips.open)))
	for _, id := range sortedKeys(a.trips.open) {
		ss := a.trips.open[id]
		w.Uvarint(uint64(id))
		w.Varint(ss.login)
		w.Varint(ss.last)
		w.F64(ss.length)
		w.Varint(ss.moving)
		w.Bool(ss.hasPrev)
		w.F64(ss.prevPos.X)
		w.F64(ss.prevPos.Y)
		w.F64(ss.prevPos.Z)
		w.Varint(ss.prevT)
	}
	encodeClosed(w, s.closed)
}

func decodeAnalyzer(r *snap.Reader) (*Analyzer, error) {
	land := r.String()
	tau := r.Varint()
	nr := r.Count(8)
	var cfg Config
	for i := 0; i < nr; i++ {
		cfg.Ranges = append(cfg.Ranges, r.F64())
	}
	cfg.ZoneSize = r.F64()
	cfg.MoveEps = r.F64()
	cfg.SessionGap = r.Varint()
	cfg.LandSize = r.F64()
	cfg.TreatZeroAsSeated = r.Bool()
	cfg.RangeWorkers = int(r.Varint())
	cfg.Window = r.Varint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	// Validate the geometry before NewAnalyzer sizes the zone grid from
	// it: a hostile LandSize/ZoneSize ratio (or a NaN) must be a typed
	// error, not a multi-gigabyte allocation or an integer-overflow
	// panic.
	for _, v := range append([]float64{cfg.ZoneSize, cfg.MoveEps, cfg.LandSize}, cfg.Ranges...) {
		if !finitePositive(v) {
			return nil, &snap.Error{Kind: snap.KindMalformed, Msg: "non-finite or non-positive analysis parameter"}
		}
	}
	if cfg.LandSize/cfg.ZoneSize > maxZoneGridEdge {
		return nil, &snap.Error{Kind: snap.KindMalformed, Msg: "zone grid too large"}
	}
	a, err := NewAnalyzer(land, tau, cfg)
	if err != nil {
		return nil, &snap.Error{Kind: snap.KindMalformed, Msg: err.Error()}
	}
	if len(a.cfg.Ranges) != nr {
		// withDefaults replaced an empty range list: the checkpoint was
		// written with explicit ranges, so an empty list is corruption.
		return nil, &snap.Error{Kind: snap.KindMalformed, Msg: "no ranges in checkpoint"}
	}
	a.started = r.Bool()
	a.firstT = r.Varint()
	a.lastT = r.Varint()
	s := a.cur
	s.snapshots = int(r.Varint())
	s.start = r.Varint()
	s.end = r.Varint()
	s.totalSamples = int(r.Varint())
	s.maxConcurrent = int(r.Varint())
	s.newUsers = int(r.Varint())
	if s.snapshots < 0 || s.totalSamples < 0 || s.maxConcurrent < 0 || s.newUsers < 0 {
		return nil, &snap.Error{Kind: snap.KindMalformed, Msg: "negative sink counter"}
	}
	nseen := r.Count(2)
	for i := 0; i < nseen; i++ {
		id := trace.AvatarID(r.Uvarint())
		t := r.Varint()
		if r.Err() != nil {
			break
		}
		if _, dup := a.firstSeenT[id]; dup {
			return nil, &snap.Error{Kind: snap.KindMalformed, Msg: "duplicate avatar in first-seen map"}
		}
		a.firstSeenT[id] = t
	}
	for i, rs := range a.ranges {
		if err := decodeTracker(r, rs.ct, a.lastT); err != nil {
			return nil, err
		}
		cs, err := decodeContactSet(r, rs.r, tau)
		if err != nil {
			return nil, err
		}
		s.contacts[i] = cs
		nm, err := decodeNetMetrics(r, rs.r)
		if err != nil {
			return nil, err
		}
		s.nets[i] = nm
	}
	s.zones = stats.DecodeWeighted(r)
	nopen := r.Count(6)
	for i := 0; i < nopen; i++ {
		id := trace.AvatarID(r.Uvarint())
		ss := &sessionState{}
		ss.login = r.Varint()
		ss.last = r.Varint()
		ss.length = r.F64()
		ss.moving = r.Varint()
		ss.hasPrev = r.Bool()
		ss.prevPos.X = r.F64()
		ss.prevPos.Y = r.F64()
		ss.prevPos.Z = r.F64()
		ss.prevT = r.Varint()
		if r.Err() != nil {
			break
		}
		if _, dup := a.trips.open[id]; dup {
			return nil, &snap.Error{Kind: snap.KindMalformed, Msg: "duplicate open session"}
		}
		a.trips.open[id] = ss
	}
	s.closed = decodeClosed(r)
	if err := r.Err(); err != nil {
		return nil, err
	}
	// Re-point every state machine at the decoded sink and arm the
	// resume skip.
	a.bindSink(s)
	if a.started {
		a.resuming = true
		a.resumeFrom = a.lastT
	}
	return a, nil
}

// ---- Component encoders ----

// encodeTracker writes the first-contact map and the pair table, both in
// ascending key order, so equal tracker states encode identically
// whatever the table's insertion history.
func encodeTracker(w *snap.Writer, ct *contactTracker) {
	w.Uvarint(uint64(len(ct.firstContact)))
	for _, id := range sortedKeys(ct.firstContact) {
		w.Uvarint(uint64(id))
		w.Varint(ct.firstContact[id])
	}
	pairs := make([]*pairSlot, 0, ct.table.n)
	for i := range ct.table.slots {
		if ct.table.slots[i].used() {
			pairs = append(pairs, &ct.table.slots[i])
		}
	}
	slices.SortFunc(pairs, func(x, y *pairSlot) int { return x.key.compare(y.key) })
	w.Uvarint(uint64(len(pairs)))
	for _, sl := range pairs {
		w.Uvarint(uint64(sl.key.A))
		w.Uvarint(uint64(sl.key.B))
		w.Varint(sl.st.start)
		w.Varint(sl.st.lastEnd)
		var flags uint64
		if sl.st.inContact {
			flags |= 1
		}
		if sl.st.leftCensored {
			flags |= 2
		}
		if sl.st.hasPrev {
			flags |= 4
		}
		w.Uvarint(flags)
	}
}

// decodeTracker restores a tracker whose latest snapshot was at lastT.
func decodeTracker(r *snap.Reader, ct *contactTracker, lastT int64) error {
	ct.lastT = lastT
	nfc := r.Count(2)
	for i := 0; i < nfc; i++ {
		id := trace.AvatarID(r.Uvarint())
		t := r.Varint()
		if r.Err() != nil {
			return r.Err()
		}
		if _, dup := ct.firstContact[id]; dup {
			return &snap.Error{Kind: snap.KindMalformed, Msg: "duplicate avatar in first-contact map"}
		}
		ct.firstContact[id] = t
	}
	np := r.Count(6)
	ct.table = newPairTable(np)
	var prev pairKey
	for i := 0; i < np; i++ {
		k := pairKey{A: trace.AvatarID(r.Uvarint()), B: trace.AvatarID(r.Uvarint())}
		var st pairState
		st.start = r.Varint()
		st.lastEnd = r.Varint()
		flags := r.Uvarint()
		if r.Err() != nil {
			return r.Err()
		}
		if flags > 7 {
			return &snap.Error{Kind: snap.KindMalformed, Msg: "bad pair flags"}
		}
		if k.A >= k.B {
			return &snap.Error{Kind: snap.KindMalformed, Msg: "pair key not normalised"}
		}
		// Ascending order is what the encoder writes; it also rules out
		// a repeated pair.
		if i > 0 && prev.compare(k) >= 0 {
			return &snap.Error{Kind: snap.KindMalformed, Msg: "pairs not in ascending key order"}
		}
		prev = k
		st.inContact = flags&1 != 0
		st.leftCensored = flags&2 != 0
		st.hasPrev = flags&4 != 0
		idx, _ := ct.table.lookupOrInsert(k)
		ct.table.slots[idx].st = st
		if st.inContact {
			ct.open++
		}
	}
	return r.Err()
}

func encodeContactSet(w *snap.Writer, cs *ContactSet) {
	w.Varint(int64(cs.Pairs))
	w.Varint(int64(cs.Censored))
	w.Varint(int64(cs.NeverContacted))
	cs.CT.Encode(w)
	cs.ICT.Encode(w)
	cs.FT.Encode(w)
}

func decodeContactSet(r *snap.Reader, rng float64, tau int64) (*ContactSet, error) {
	cs := newContactSet(rng, tau)
	cs.Pairs = int(r.Varint())
	cs.Censored = int(r.Varint())
	cs.NeverContacted = int(r.Varint())
	if r.Err() == nil && (cs.Pairs < 0 || cs.Censored < 0 || cs.NeverContacted < 0) {
		return nil, &snap.Error{Kind: snap.KindMalformed, Msg: "negative contact counter"}
	}
	cs.CT = stats.DecodeWeighted(r)
	cs.ICT = stats.DecodeWeighted(r)
	cs.FT = stats.DecodeWeighted(r)
	return cs, r.Err()
}

func encodeNetMetrics(w *snap.Writer, nm *NetMetrics) {
	nm.Degrees.Encode(w)
	nm.Diameters.Encode(w)
	stats.EncodeSample(w, nm.Clusterings)
}

func decodeNetMetrics(r *snap.Reader, rng float64) (*NetMetrics, error) {
	nm := newNetMetrics(rng)
	nm.Degrees = stats.DecodeWeighted(r)
	nm.Diameters = stats.DecodeWeighted(r)
	nm.Clusterings = stats.DecodeSample(r)
	return nm, r.Err()
}

func encodeClosed(w *snap.Writer, closed []closedSession) {
	w.Uvarint(uint64(len(closed)))
	for _, cs := range closed {
		w.Uvarint(uint64(cs.id))
		w.Varint(cs.login)
		w.Varint(cs.duration)
		w.F64(cs.length)
		w.Varint(cs.moving)
	}
}

func decodeClosed(r *snap.Reader) []closedSession {
	n := r.Count(5)
	var out []closedSession
	for i := 0; i < n; i++ {
		var cs closedSession
		cs.id = trace.AvatarID(r.Uvarint())
		cs.login = r.Varint()
		cs.duration = r.Varint()
		cs.length = r.F64()
		cs.moving = r.Varint()
		if r.Err() != nil {
			return out
		}
		out = append(out, cs)
	}
	return out
}

// ---- Whole-Analysis encoding (collected window series) ----

func encodeAnalysis(w *snap.Writer, an *Analysis) {
	w.String(an.Land)
	w.Varint(int64(an.Summary.Snapshots))
	w.Varint(an.Summary.DurationSec)
	w.Varint(int64(an.Summary.Unique))
	w.Varint(int64(an.Summary.MaxConcurrent))
	w.Varint(int64(an.Summary.TotalSamples))
	w.Varint(an.Start)
	w.Varint(an.End)
	w.Uvarint(uint64(len(an.Contacts)))
	for _, r := range sortedKeys(an.Contacts) {
		cs := an.Contacts[r]
		w.F64(r)
		w.Varint(cs.Tau)
		encodeContactSet(w, cs)
	}
	w.Uvarint(uint64(len(an.Nets)))
	for _, r := range sortedKeys(an.Nets) {
		w.F64(r)
		encodeNetMetrics(w, an.Nets[r])
	}
	an.Zones.Encode(w)
	encodeClosed(w, an.Trips.sess)
}

func decodeAnalysis(r *snap.Reader) (*Analysis, error) {
	an := &Analysis{
		Contacts: make(map[float64]*ContactSet),
		Nets:     make(map[float64]*NetMetrics),
	}
	an.Land = r.String()
	an.Summary.Land = an.Land
	an.Summary.Snapshots = int(r.Varint())
	an.Summary.DurationSec = r.Varint()
	an.Summary.Unique = int(r.Varint())
	an.Summary.MaxConcurrent = int(r.Varint())
	an.Summary.TotalSamples = int(r.Varint())
	an.Start = r.Varint()
	an.End = r.Varint()
	if an.Summary.Snapshots > 0 {
		an.Summary.MeanConcurrent = float64(an.Summary.TotalSamples) / float64(an.Summary.Snapshots)
	}
	nc := r.Count(9)
	for i := 0; i < nc; i++ {
		rng := r.F64()
		tau := r.Varint()
		cs, err := decodeContactSet(r, rng, tau)
		if err != nil {
			return nil, err
		}
		if _, dup := an.Contacts[rng]; dup {
			return nil, &snap.Error{Kind: snap.KindMalformed, Msg: "duplicate contact range"}
		}
		an.Contacts[rng] = cs
	}
	nn := r.Count(9)
	for i := 0; i < nn; i++ {
		rng := r.F64()
		nm, err := decodeNetMetrics(r, rng)
		if err != nil {
			return nil, err
		}
		if _, dup := an.Nets[rng]; dup {
			return nil, &snap.Error{Kind: snap.KindMalformed, Msg: "duplicate net range"}
		}
		an.Nets[rng] = nm
	}
	an.Zones = stats.DecodeWeighted(r)
	an.Trips = buildTripStats(decodeClosed(r), nil)
	return an, r.Err()
}
