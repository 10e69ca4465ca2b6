package machine

import (
	"github.com/tieredmem/hemem/internal/fault"
	"github.com/tieredmem/hemem/internal/mem"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// MigStats aggregates migration activity. Promotions move pages up the
// chain (toward faster tiers), demotions down it.
type MigStats struct {
	Pages      int64
	Bytes      float64
	Promotions int64
	Demotions  int64
}

// migReq is one in-flight page move. Migration is transactional: the copy
// accumulates in done, a verification step at full copy may abort (fault
// injection), and only commit flips the page's tier — rollback merely
// resets done, leaving the source page intact.
type migReq struct {
	page *vm.Page
	dst  vm.Tier
	// done is the bytes copied in the current attempt.
	done float64
	// attempts counts aborted attempts so far.
	attempts int
	// notBefore delays the next attempt until the retry backoff expires.
	notBefore int64
	// urgent marks emergency moves (page retirement after an uncorrectable
	// error); they jump the queue and are never aborted.
	urgent bool
}

// migrationMaxRetries is how many retries a migration gets after its
// first aborted attempt before it is abandoned and the page stays in
// place.
const migrationMaxRetries = 5

// moved summarizes the bytes a quantum's migrations put on each device.
type moved struct {
	bytes  float64
	srcDev Dev
	dstDev Dev
}

// Migrator executes page migrations asynchronously against a bandwidth
// budget: the policy's rate cap (the paper sets 10 GB/s so migration never
// disturbs the application) and the copy engine's own throughput
// (copy.go).
type Migrator struct {
	m *Machine
	// RateCap bounds migration bandwidth in bytes/ns.
	RateCap float64

	// The copy engine. Channel health and the derate are machine state:
	// they survive a manager swap.
	failedChannels int     // DMA channels lost to injected faults
	dmaDerate      float64 // DMA bandwidth multiplier; 1 is full speed
	threads        int     // copy threads; 0 while the DMA engine copies

	queue []*migReq
	// free recycles completed migReq structs; sustained migration at
	// policy-tick rates would otherwise allocate one per page move.
	free []*migReq

	lastMoved [MaxDevs]moved // per direction (index: dst device)
	stats     MigStats
	// inflight is the queue's net page charge per tier: a queued move
	// counts +1 on its destination and -1 on its source from Enqueue until
	// it completes, is abandoned or is cancelled. With the address space's
	// resident counts it makes the committed ledger (Machine.Committed).
	inflight [vm.MaxTiers]int
	// edges counts completed page moves per (src, dst) tier pair — the
	// traversal counts of the migration graph.
	edges [vm.MaxTiers][vm.MaxTiers]int64
}

// NewMigrator returns a migrator copying with a healthy DMA engine under
// the paper's 10 GB/s cap.
func NewMigrator(m *Machine) *Migrator {
	return &Migrator{m: m, RateCap: sim.GBps(10), dmaDerate: 1}
}

// newReq takes a request from the freelist (or allocates one) and
// initializes it.
func (g *Migrator) newReq(p *vm.Page, dst vm.Tier, urgent bool) *migReq {
	var req *migReq
	if n := len(g.free); n > 0 {
		req = g.free[n-1]
		g.free[n-1] = nil
		g.free = g.free[:n-1]
		*req = migReq{}
	} else {
		req = &migReq{}
	}
	req.page, req.dst, req.urgent = p, dst, urgent
	return req
}

// release returns a finished request to the freelist and moves its
// charge back to the page's source tier. A completing move releases its
// request before the page lands, so the charge and the page cross over
// together.
func (g *Migrator) release(req *migReq) {
	g.shift(req.dst, req.page.Tier)
	req.page = nil
	g.free = append(g.free, req)
}

// shift moves one page's in-flight charge from tier from to tier to.
func (g *Migrator) shift(from, to vm.Tier) {
	g.inflight[from]--
	g.inflight[to]++
}

// Enqueue schedules page p to move to tier dst. Pages already migrating or
// already in dst are ignored, and so are moves into an offline tier
// (admission control: a tier being drained takes no pages). The page is
// write-protected for the duration of the copy (userfaultfd WP), which the
// simulation marks with p.SetMigrating. Until the move ends, the page's bytes
// are committed to dst.
func (g *Migrator) Enqueue(p *vm.Page, dst vm.Tier) bool {
	if !g.admits(p, dst) {
		return false
	}
	p.SetMigrating(true)
	g.shift(p.Tier, dst)
	g.queue = append(g.queue, g.newReq(p, dst, false))
	return true
}

// EnqueueUrgent schedules an emergency migration (e.g. evacuating a page
// whose NVM frame took an uncorrectable error) at the head of the queue.
// Urgent moves are never aborted by fault injection; they are admitted as
// Enqueue admits them.
func (g *Migrator) EnqueueUrgent(p *vm.Page, dst vm.Tier) bool {
	if !g.admits(p, dst) {
		return false
	}
	p.SetMigrating(true)
	g.shift(p.Tier, dst)
	g.queue = append(g.queue, nil)
	copy(g.queue[1:], g.queue)
	g.queue[0] = g.newReq(p, dst, true)
	return true
}

// admits reports whether p may be queued to move to dst: it is not
// already migrating or in dst, and dst is a placed tier that is online.
func (g *Migrator) admits(p *vm.Page, dst vm.Tier) bool {
	return !p.Migrating() && p.Tier != dst && dst != vm.TierNone && !g.m.offline[dst]
}

// Cancel removes any queued migration of p without completing it: the
// page stays in its source tier, its write protection is lifted and its
// bytes are committed to the source again. The bytes of a partial copy
// attempt are discarded (wear stays charged — the traffic really hit the
// media). It returns the destination tier of the cancelled request.
func (g *Migrator) Cancel(p *vm.Page) (dst vm.Tier, cancelled bool) {
	for i, req := range g.queue {
		if req.page == p {
			g.queue = append(g.queue[:i], g.queue[i+1:]...)
			g.queue = g.queue[:len(g.queue):cap(g.queue)]
			p.SetMigrating(false)
			dst = req.dst
			g.release(req)
			return dst, true
		}
	}
	return vm.TierNone, false
}

// cancelRegion cancels every queued move of region r's pages, as Cancel
// does for one page, keeping the rest of the queue in order.
func (g *Migrator) cancelRegion(r *vm.Region) {
	w := 0
	for _, req := range g.queue {
		if !r.Contains(req.page.ID) {
			g.queue[w] = req
			w++
			continue
		}
		req.page.SetMigrating(false)
		g.release(req)
	}
	clear(g.queue[w:])
	g.queue = g.queue[:w]
}

// QueueLen returns the number of pages waiting to move.
func (g *Migrator) QueueLen() int { return len(g.queue) }

// QueuedBytes returns the bytes still to be copied.
func (g *Migrator) QueuedBytes() float64 {
	ps := float64(g.m.Cfg.PageSize)
	total := 0.0
	for _, req := range g.queue {
		total += ps - req.done
	}
	return total
}

// Stats returns cumulative migration statistics.
func (g *Migrator) Stats() MigStats { return g.stats }

// advance runs up to one quantum's worth of copying: budget-limited FIFO
// processing with wear charged to both devices. Requests still waiting out
// a retry backoff are skipped without head-of-line blocking. It is called
// by Machine.Step before traffic costing so completed moves are visible
// immediately.
func (g *Migrator) advance(now, dt int64) {
	g.lastMoved = [MaxDevs]moved{}
	if len(g.queue) == 0 {
		return
	}
	rate := g.RateCap
	if bt := g.CopyThroughput(); bt < rate {
		rate = bt
	}
	budget := rate * float64(dt)
	ps := float64(g.m.Cfg.PageSize)
	// Compact the queue in place: surviving requests slide to the front in
	// order instead of paying an O(n) slice removal per completed page.
	// finish may append retries to the tail mid-loop; they carry a future
	// notBefore, so the sweep keeps them without reprocessing.
	i, w := 0, 0
	for i < len(g.queue) {
		req := g.queue[i]
		i++
		if budget <= 0 || req.notBefore > now {
			g.queue[w] = req
			w++
			continue
		}
		need := ps - req.done
		chunk := need
		if chunk > budget {
			chunk = budget
		}
		budget -= chunk
		req.done += chunk
		g.charge(req.page.Tier, req.dst, chunk)
		if req.done >= ps {
			g.finish(req, now)
		} else {
			g.queue[w] = req
			w++
		}
	}
	for j := w; j < len(g.queue); j++ {
		g.queue[j] = nil
	}
	g.queue = g.queue[:w]
}

// charge accounts one chunk of copy traffic on devices and in the
// per-direction summary used for utilization seeding.
func (g *Migrator) charge(src, dst vm.Tier, bytes float64) {
	sd, dd := g.m.TierDev(src), g.m.TierDev(dst)
	g.m.Device(sd).RecordBytes(mem.Read, bytes)
	g.m.Device(dd).RecordBytes(mem.Write, bytes)
	mv := &g.lastMoved[dd]
	mv.bytes += bytes
	mv.srcDev, mv.dstDev = sd, dd
	g.stats.Bytes += bytes
}

// finish runs the verification step at the end of one full page copy: the
// move either aborts (injected verification failure / destination
// pressure) and rolls back, or commits. Urgent moves never abort.
func (g *Migrator) finish(req *migReq, now int64) {
	if !req.urgent && g.m.Injector.MigrationAbort() {
		g.abort(req, now)
		return
	}
	g.complete(req)
}

// abort rolls back a failed copy attempt. The copied bytes are discarded —
// wear stays charged, since the traffic really hit the media — and the
// source page remains intact in place. The request retries after a capped
// exponential backoff, or is abandoned once it exhausts its retries (the
// page stays put, its bytes committed to the source again, and the
// manager is told).
func (g *Migrator) abort(req *migReq, now int64) {
	st := g.m.FaultCounters()
	st.MigrationAborts++
	src, dst := req.page.Tier, req.dst
	edgeOK := int(src) >= 0 && int(src) < vm.MaxTiers && int(dst) >= 0 && int(dst) < vm.MaxTiers
	req.done = 0
	req.attempts++
	if req.attempts > migrationMaxRetries {
		st.MigrationsAbandoned++
		if edgeOK {
			st.MigrationsAbandonedByEdge[src][dst]++
		}
		page := req.page
		page.SetMigrating(false)
		g.release(req)
		if obs, ok := g.m.mgr.(MigrationFailureObserver); ok {
			obs.OnMigrationFailed(page, dst)
		}
		return
	}
	st.MigrationRetries++
	if edgeOK {
		st.MigrationRetriesByEdge[src][dst]++
	}
	req.notBefore = now + fault.Backoff(req.attempts)
	g.queue = append(g.queue, req)
}

// complete commits one page move. A move to a faster tier (smaller
// device index) is a promotion, anything else a demotion.
func (g *Migrator) complete(req *migReq) {
	src := req.page.Tier
	if g.m.TierDev(req.dst) < g.m.TierDev(src) {
		g.stats.Promotions++
	} else {
		g.stats.Demotions++
	}
	if int(src) >= 0 && int(src) < vm.MaxTiers && int(req.dst) >= 0 && int(req.dst) < vm.MaxTiers {
		g.edges[src][req.dst]++
	}
	if int(src) > 0 && int(src) < vm.MaxTiers && g.m.offline[src] {
		g.m.faultStats.TierEvacuatedPages++
	}
	g.stats.Pages++
	page, dst := req.page, req.dst
	if tr := g.m.tenants; tr != nil {
		if o := g.m.AS.RegionOf(page.ID).Owner(); o != vm.TenantNone {
			tr.noteMigration(o)
		}
	}
	g.release(req)
	g.m.AS.SetTier(page, dst)
	page.SetMigrating(false)
	if obs, ok := g.m.mgr.(MigrationObserver); ok {
		obs.OnMigrated(page)
	}
}

// Moved returns how many pages have completed a src→dst move — one edge
// of the migration graph.
func (g *Migrator) Moved(src, dst vm.TierID) int64 {
	if int(src) < 0 || int(src) >= vm.MaxTiers || int(dst) < 0 || int(dst) >= vm.MaxTiers {
		return 0
	}
	return g.edges[src][dst]
}

// planned reports the traffic moved in the most recent advance, for the
// contention solver.
func (g *Migrator) planned(dt int64) [MaxDevs]moved { return g.lastMoved }

// activeThreads reports copy-thread core consumption for the CPU model:
// the dedicated thread pool holds its cores always, the DMA engine none.
func (g *Migrator) activeThreads() float64 { return float64(g.threads) }
