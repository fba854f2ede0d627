package core

import (
	"slices"
	"sync"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/prefix"
	"artemis/internal/ring"
	"artemis/internal/stats"
)

// Pipeline is the batched detection data path: one bounded ring feeding
// one worker goroutine. Submit deep-copies a feed batch into a pooled job
// and enqueues it; the worker takes jobs in FIFO order, routes each event
// to the owned prefixes it concerns, classifies it once per matched
// tenant under that tenant's config, and applies the results — alert
// commits, handlers, monitor fold — exactly as the serial
// Detector/Monitor path would. A reconfiguration is a barrier job in the
// same ring.
//
// The steady state allocates nothing (docs/PERFORMANCE.md): jobs recycle
// through a sync.Pool and the worker reuses its routing arenas. The ring
// is bounded, so when the worker falls behind Submit blocks — the feed's
// transport is the buffer.
//
// Alert handlers run on the worker. A handler must not call Submit or
// SubmitWait on its own pipeline (it would wait on itself); schedule
// follow-up work instead, as the mitigation controller does.
type Pipeline struct {
	// table is the policy snapshot new jobs are stamped with. Written
	// under life held exclusively, read under life held shared.
	table *PolicyTable

	// in is the job queue: submitters serialize on pushMu to form its
	// single producer, the worker is its consumer.
	in     *ring.Ring[*batchJob]
	pushMu sync.Mutex

	jobs sync.Pool

	// life is held shared by submitters while they stamp and enqueue a
	// job, and exclusively by ReconfigureTable and Close, so a barrier or
	// the ring's close never lands in the middle of a submission.
	life   sync.RWMutex
	closed bool

	// applyMu/applyCond publish the applied counter to waiters. Jobs are
	// counted into submitted in queue order, so the job that made
	// submitted n is applied once applied reaches n.
	applyMu   sync.Mutex
	applyCond *sync.Cond

	w          worker
	workerDone chan struct{}

	submitted, applied, events, reconfigs stats.Counter
	// classified/batches count the worker's events and jobs; service
	// times its per-batch route + classify, sinkApply its alert commit +
	// handlers + monitor fold.
	classified, batches stats.Counter
	service, sinkApply  *stats.Histogram
}

// PipelineConfig tunes the pipeline.
type PipelineConfig struct {
	// QueueDepth bounds the batches waiting for the worker before Submit
	// blocks (default 128; rounded up to a power of two by the ring).
	QueueDepth int
}

// batchJob is one submitted batch in flight; its slices are reused
// backing arrays, recycled through Pipeline.jobs.
type batchJob struct {
	// table is the policy snapshot the job was submitted under; the
	// worker routes and classifies with it, not with live state.
	table *PolicyTable
	// swap, when non-nil, marks a reconfiguration barrier: the job carries
	// no events and the worker runs swap() at the job's queue position.
	swap func()
	// events is the job's deep copy of the submitted batch; paths is the
	// flat arena its events' Path slices alias.
	events []feedtypes.Event
	paths  []bgp.ASN
}

// worker is the state only the worker goroutine touches: the applying
// job's policy snapshot and arenas reused batch after batch.
type worker struct {
	table *PolicyTable
	// matches is the flat arena of per-event tenant matches: event i's
	// matches are matches[matchOff[i] : matchOff[i]+matchN[i]], at most
	// one per tenant (that tenant's LPM, or its config-order squat).
	// Events with equal prefixes share one arena range.
	matches  []eventMatch
	matchOff []int32
	matchN   []int32
	// drops is the batch's per-tenant classification-quota drop tally;
	// counts its per-(tenant, source) event tally; alerts its hijack
	// candidates in event order.
	drops  []tally[int32]
	counts []tally[tenantSource]
	alerts []tenantAlert
	keys   []uint64 // routeBatch's sort keys
	// The trie walk in progress: the event prefix, where its matches
	// start and where its LPM matches end; the callbacks are bound once.
	pfx          prefix.Prefix
	base, lpmEnd int32
	supFn, covFn func(prefix.Prefix, []ownedRef) bool
}

// eventMatch is one (event, tenant) routing result: the tenant, the index
// of its matched owned prefix, and the relation (never zero).
type eventMatch struct {
	tenant   int32
	ownedIdx int32
	rel      uint8
}

// tenantAlert is a candidate alert and the tenant it commits to.
type tenantAlert struct {
	tenant int32
	alert  Alert
}

// tally is one key's count within a batch. A batch has a handful of keys,
// so bump's linear scan over reused capacity beats a map.
type tally[K comparable] struct {
	key K
	n   int
}

func bump[K comparable](ts []tally[K], key K) []tally[K] {
	for i := range ts {
		if ts[i].key == key {
			ts[i].n++
			return ts
		}
	}
	return append(ts, tally[K]{key, 1})
}

// tenantSource keys the per-(tenant, source) event tally.
type tenantSource struct {
	tenant int32
	src    string
}

// visitSupernet records q's owners as exact/sub-prefix matches. Supernets
// arrive shortest-first, so replacing a tenant's earlier entry implements
// per-tenant LPM over the shared trie: the last supernet a tenant owns on
// the event prefix's descent path is that tenant's longest match.
func (w *worker) visitSupernet(q prefix.Prefix, refs []ownedRef) bool {
	rel := uint8(AlertSubPrefix)
	if q == w.pfx {
		rel = uint8(AlertExactOrigin)
	}
refs:
	for _, r := range refs {
		for i := w.base; i < int32(len(w.matches)); i++ {
			if w.matches[i].tenant == r.tenant {
				w.matches[i] = eventMatch{tenant: r.tenant, ownedIdx: r.ownedIdx, rel: rel}
				continue refs
			}
		}
		w.matches = append(w.matches, eventMatch{tenant: r.tenant, ownedIdx: r.ownedIdx, rel: rel})
	}
	return true
}

// visitCovered records q's owners as squat candidates (the event prefix
// covers q). A tenant already holding an exact/sub entry keeps it — LPM
// beats squat, as in the single-tenant router. Among a tenant's several
// covered prefixes the lowest config index wins, matching the serial
// config-order scan.
func (w *worker) visitCovered(q prefix.Prefix, refs []ownedRef) bool {
	if q == w.pfx {
		return true // exact ownership was already handled by the supernet pass
	}
refs:
	for _, r := range refs {
		for i := w.base; i < w.lpmEnd; i++ {
			if w.matches[i].tenant == r.tenant {
				continue refs
			}
		}
		for i := w.lpmEnd; i < int32(len(w.matches)); i++ {
			if w.matches[i].tenant == r.tenant {
				if r.ownedIdx < w.matches[i].ownedIdx {
					w.matches[i].ownedIdx = r.ownedIdx
				}
				continue refs
			}
		}
		w.matches = append(w.matches, eventMatch{tenant: r.tenant, ownedIdx: r.ownedIdx, rel: uint8(AlertSquat)})
	}
	return true
}

// reset readies a pooled job for reuse; clearing the events unpins their
// source strings.
func (j *batchJob) reset() {
	j.table, j.swap = nil, nil
	clear(j.events)
	j.events = j.events[:0]
	j.paths = j.paths[:0]
}

// NewPipelineTable builds and starts a pipeline routing under a
// multi-tenant policy table. Close releases the worker.
func NewPipelineTable(table *PolicyTable, cfg PipelineConfig) *Pipeline {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 128
	}
	p := &Pipeline{
		table:      table,
		in:         ring.New[*batchJob](cfg.QueueDepth),
		workerDone: make(chan struct{}),
		service:    stats.NewHistogram(),
		sinkApply:  stats.NewHistogram(),
	}
	p.w.supFn, p.w.covFn = p.w.visitSupernet, p.w.visitCovered
	p.jobs.New = func() any { return new(batchJob) }
	p.applyCond = sync.NewCond(&p.applyMu)
	go p.work()
	return p
}

const fnvOffset = 1469598103934665603

// routeKeyIdxBits is how many low bits of a routing sort key carry the
// event's batch index; the identity hash keeps the top 44 bits.
const routeKeyIdxBits = 20

// routeBatch fills w.matches/matchOff/matchN for every event. The batch
// is sorted by prefix identity hash, and each run of equal prefixes costs
// one pair of trie walks: the later events of a run alias the head's
// arena range. Feed batches repeat prefixes heavily (path hunting, flaps),
// so the trie work is O(distinct prefixes), not O(events).
func (w *worker) routeBatch(events []feedtypes.Event) {
	n := len(events)
	w.matchOff = append(w.matchOff[:0], make([]int32, n)...)
	w.matchN = append(w.matchN[:0], make([]int32, n)...)
	if n >= 1<<routeKeyIdxBits || w.table.quotas {
		// Quota enforcement spends one token per (event, tenant), so equal
		// prefixes cannot share a routing result; batches too large to pack
		// indices into the sort key (never hit by real feeds: flushes are
		// bounded at a few hundred events) route event-by-event too.
		for i := range events {
			w.routeOne(events, i)
		}
		return
	}
	w.keys = w.keys[:0]
	for i := range events {
		k := prefix.FoldIdentity(fnvOffset, events[i].Prefix)
		w.keys = append(w.keys, k&^uint64(1<<routeKeyIdxBits-1)|uint64(i))
	}
	slices.Sort(w.keys)
	for a := 0; a < n; {
		bEnd := a + 1
		for bEnd < n && w.keys[bEnd]&^uint64(1<<routeKeyIdxBits-1) == w.keys[a]&^uint64(1<<routeKeyIdxBits-1) {
			bEnd++
		}
		head := int(w.keys[a] & (1<<routeKeyIdxBits - 1))
		w.routeOne(events, head)
		headPfx := events[head].Prefix
		for k := a + 1; k < bEnd; k++ {
			i := int(w.keys[k] & (1<<routeKeyIdxBits - 1))
			if events[i].Prefix == headPfx {
				w.matchOff[i] = w.matchOff[head]
				w.matchN[i] = w.matchN[head]
			} else {
				// 44-bit hash collision between distinct prefixes: route
				// this event on its own.
				w.routeOne(events, i)
			}
		}
		a = bEnd
	}
}

// routeOne resolves one event's per-tenant matches: one supernet walk for
// exact/sub relations with per-tenant LPM, one covered walk for squats.
// With quotas active it also spends each matched tenant's token, in queue
// order, so drops are deterministic in submission order.
func (w *worker) routeOne(events []feedtypes.Event, i int) {
	w.pfx = events[i].Prefix
	w.base = int32(len(w.matches))
	t := w.table
	t.trie.Supernets(w.pfx, w.supFn)
	w.lpmEnd = int32(len(w.matches))
	t.trie.CoveredBy(w.pfx, w.covFn)
	if t.quotas {
		kept := w.base
		now := events[i].EmittedAt
		for k := w.base; k < int32(len(w.matches)); k++ {
			m := w.matches[k]
			e := &t.entries[m.tenant]
			if perSec := e.cfg.MaxEventsPerSecond; perSec > 0 && !e.rt.quota.take(now, perSec, time.Duration.Seconds) {
				w.drops = bump(w.drops, m.tenant)
				continue
			}
			w.matches[kept] = m
			kept++
		}
		w.matches = w.matches[:kept]
	}
	w.matchOff[i] = w.base
	w.matchN[i] = int32(len(w.matches)) - w.base
}

// Submit ingests one batch asynchronously. The batch is deep-copied
// (events and AS paths), so the caller owns it again — and may release
// it to its pool — the moment Submit returns. Submit blocks only for
// backpressure (a full ring). Batches submitted from one goroutine are
// applied in submission order; no order is defined across goroutines.
func (p *Pipeline) Submit(batch []feedtypes.Event) {
	p.submit(batch, false)
}

// SubmitWait ingests one batch and returns after the worker has fully
// applied it — alerts committed, handlers run, monitor folded. The batch
// ownership contract matches Submit's.
func (p *Pipeline) SubmitWait(batch []feedtypes.Event) {
	p.submit(batch, true)
}

func (p *Pipeline) submit(batch []feedtypes.Event, wait bool) {
	if len(batch) == 0 {
		return
	}
	job := p.jobs.Get().(*batchJob)
	// Deep-copy the batch: events into the job's reused slice, each AS
	// path into its flat arena.
	job.events = append(job.events, batch...)
	for i := range job.events {
		if path := job.events[i].Path; len(path) > 0 {
			start := len(job.paths)
			job.paths = append(job.paths, path...)
			job.events[i].Path = job.paths[start:len(job.paths):len(job.paths)]
		}
	}
	// Stamp and enqueue under the shared life lock, so every job is queued
	// under its snapshot on the right side of any reconfiguration barrier.
	p.life.RLock()
	if p.closed {
		p.life.RUnlock()
		return // shut down: the batch is dropped, as a detached source's would be
	}
	job.table = p.table
	p.events.Add(int64(len(batch)))
	// Push blocks for backpressure. The ring is only closed under the
	// exclusive life lock, so a blocked push always drains.
	p.pushMu.Lock()
	p.submitted.Inc()
	seq := p.submitted.Load()
	p.in.Push(job)
	p.pushMu.Unlock()
	p.life.RUnlock()
	if wait {
		p.waitApplied(seq)
	}
}

// work is the pipeline's one worker: it applies every job in queue order.
func (p *Pipeline) work() {
	defer close(p.workerDone)
	for {
		j, ok := p.in.Pop()
		if !ok {
			return
		}
		p.apply(j)
	}
}

func (p *Pipeline) apply(j *batchJob) {
	if j.swap != nil {
		// Reconfiguration barrier: runs at its queue position, so every
		// batch queued before it has been fully applied (alerts committed,
		// monitor folded) and none queued after it has.
		j.swap()
		p.finish(j)
		return
	}
	start := time.Now()
	w := &p.w
	w.table = j.table
	w.matches, w.drops = w.matches[:0], w.drops[:0]
	w.routeBatch(j.events)
	table := w.table
	single := table.single()
	for i := range j.events {
		ev := &j.events[i]
		off, n := w.matchOff[i], w.matchN[i]
		if n == 0 {
			if single {
				// Single-tenant compat: an unmatched well-formed
				// announcement still tallies per source, exactly as the
				// serial detector counts every event it is shown.
				if _, counted, _ := table.entries[0].cfg.classifyRouted(ev, prefix.Prefix{}, 0); counted {
					w.counts = bump(w.counts, tenantSource{0, ev.Source})
				}
			}
			continue
		}
		for _, m := range w.matches[off : off+n] {
			e := &table.entries[m.tenant]
			alert, counted, isAlert := e.cfg.classifyRouted(ev, e.cfg.OwnedPrefixes[m.ownedIdx], AlertType(m.rel))
			if counted {
				w.counts = bump(w.counts, tenantSource{m.tenant, ev.Source})
			}
			if isAlert {
				w.alerts = append(w.alerts, tenantAlert{tenant: m.tenant, alert: alert})
			}
		}
	}
	p.classified.Add(int64(len(j.events)))
	p.batches.Inc()
	applyStart := time.Now()
	p.service.Observe(applyStart.Sub(start))

	for _, t := range w.counts {
		table.entries[t.key.tenant].det.addSourceCount(t.key.src, t.n)
	}
	// Commit alerts in event order; one event's alerts are adjacent, in
	// match order, so a multi-tenant fan-out commits together.
	for _, ta := range w.alerts {
		table.entries[ta.tenant].det.commit(ta.alert)
	}
	if single {
		// The classic shape: the monitor folds every submitted event (an
		// unmatched event still creates vantage-point state), and the
		// tenant counter tracks matched events.
		e := &table.entries[0]
		matched := 0
		for i := range j.events {
			if w.matchN[i] > 0 {
				matched++
			}
		}
		e.rt.events.Add(int64(matched))
		if e.mon != nil {
			e.mon.ProcessBatch(j.events)
		}
	} else {
		// Multi-tenant: each tenant's monitor folds exactly the events that
		// matched that tenant — the stream an independent per-tenant
		// instance would have received from its own feed filter.
		for i := range j.events {
			off, n := w.matchOff[i], w.matchN[i]
			for _, m := range w.matches[off : off+n] {
				e := &table.entries[m.tenant]
				e.rt.events.Inc()
				if e.mon != nil {
					e.mon.Process(j.events[i])
				}
			}
		}
	}
	for _, d := range w.drops {
		e := &table.entries[d.key]
		e.rt.quotaDrops.Add(int64(d.n))
		if table.onQuotaDrop != nil {
			table.onQuotaDrop(e.name, int64(d.n))
		}
	}
	p.sinkApply.Observe(time.Since(applyStart))
	// Drop the batch's references (source strings, paths) so the worker
	// does not pin them until the next batch.
	clear(w.counts)
	clear(w.alerts)
	w.counts, w.alerts, w.table = w.counts[:0], w.alerts[:0], nil
	p.finish(j)
}

// finish publishes the job's completion to waiters, then recycles it.
func (p *Pipeline) finish(j *batchJob) {
	p.applyMu.Lock()
	p.applied.Inc()
	p.applyCond.Broadcast()
	p.applyMu.Unlock()
	j.reset()
	p.jobs.Put(j)
}

// waitApplied blocks until the first seq queued jobs have been applied.
func (p *Pipeline) waitApplied(seq int64) {
	p.applyMu.Lock()
	for p.applied.Load() < seq {
		p.applyCond.Wait()
	}
	p.applyMu.Unlock()
}

// ReconfigureTable atomically swaps the whole policy table — tenants
// added, removed or retuned in one barrier — and runs onApply at the
// swap's serial position, returning once it has run. The swap and its
// barrier job are queued under the exclusive life lock, so every batch
// carries one table and is queued strictly before or after the barrier;
// onApply, which should swap each retuned tenant's detector, monitor and
// mitigator to its new config (Service.SwapConfig), sees what a serial
// run would see between the last batch submitted before ReconfigureTable
// and the first one after it. Tenants surviving the swap should carry
// their Runtime (and usually Detector/Monitor) into the next table, or
// their counters and quota state restart from zero. ReconfigureTable
// must not be called from an alert handler or monitor fold (the barrier
// waits on the worker they run on). On a closed pipeline onApply runs
// inline.
func (p *Pipeline) ReconfigureTable(next *PolicyTable, onApply func()) {
	p.life.Lock()
	if p.closed {
		p.life.Unlock()
		if onApply != nil {
			onApply()
		}
		return
	}
	p.table = next
	job := p.jobs.Get().(*batchJob)
	job.table = next
	job.swap = func() {}
	if onApply != nil {
		job.swap = onApply
	}
	p.reconfigs.Inc()
	// No submitter holds the shared lock, so this is the ring's only
	// producer right now.
	p.submitted.Inc()
	seq := p.submitted.Load()
	p.in.Push(job)
	p.life.Unlock()
	p.waitApplied(seq)
}

// Flush blocks until every batch submitted before the call has been
// applied. Batches submitted concurrently with or after Flush are not
// waited for, so a flush completes even while sources keep publishing.
func (p *Pipeline) Flush() {
	p.waitApplied(p.submitted.Load())
}

// Close drains every pending batch through the worker and stops it. It
// is idempotent; Submit after Close drops the batch.
func (p *Pipeline) Close() {
	p.life.Lock()
	if p.closed {
		p.life.Unlock()
		return
	}
	p.closed = true
	p.in.Close()
	p.life.Unlock()
	<-p.workerDone
}

// Snapshot reports the pipeline's counters; the worker reports as the
// one shard of the metrics' per-shard shape.
func (p *Pipeline) Snapshot() stats.PipelineSnapshot {
	return stats.PipelineSnapshot{
		Submitted: p.submitted.Load(),
		Applied:   p.applied.Load(),
		Events:    p.events.Load(),
		Reconfigs: p.reconfigs.Load(),
		SinkApply: p.sinkApply.Snapshot(),
		Shards: []stats.ShardSnapshot{{
			Events:   p.classified.Load(),
			Batches:  p.batches.Load(),
			QueueLen: p.in.Len(),
			QueueCap: p.in.Cap(),
			Service:  p.service.Snapshot(),
		}},
	}
}
