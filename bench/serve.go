package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/hotcore"
)

// serveLoad is one serving workload: the path its clients request ("plan"
// or "gnn") and how many clients run. Every loop is closed: a client sends
// its next request only after the previous one returned, so at most two
// requests are in flight on the 2-core hosts the bench targets.
type serveLoad struct {
	path    string
	clients int
}

var serveLoads = map[string]serveLoad{
	"plan-build": {"plan", 2},
	"gnn-infer":  {"gnn", 2},
}

// setupRuns is how many times a run sets up: setup_s is the median, and
// the last set-up's daemon serves the timed phase.
const setupRuns = 9

// setupCount is setupRuns, or 2 in -smoke runs.
func (b *bench) setupCount() int {
	if b.smoke {
		return 2
	}
	return setupRuns
}

// warmupTime is the untimed stretch of the workload's own load between set-up
// and the timed phase. On plan-build it fills the daemon's 256 MB plan
// cache and lets its heap reach its steady size; without it the first 5 s
// of a fresh daemon ran 5–10% slower than the rest of the run.
const warmupTime = 5 * time.Second

// warmup is warmupTime, or a quarter second in -smoke runs.
func (b *bench) warmup() time.Duration {
	if b.smoke {
		return time.Second / 4
	}
	return warmupTime
}

// keepEvery selects the /plan responses checked after the timed phase:
// the first body of each class and every keepEvery-th body.
const keepEvery = 32

// serve runs one serving workload against a fresh hottilesd.
func (b *bench) serve(ctx context.Context, load serveLoad) error {
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}}
	defer hc.CloseIdleConnections()
	logPath := filepath.Join(b.tmp, "hottilesd.log")

	// Set-up: boot the daemon and prime the GNN bodies' plans, over fresh
	// processes each time.
	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	bodies := b.gnnBodies()
	var setups []float64
	var resp bytes.Buffer
	for i := 0; i < b.setupCount(); i++ {
		if d != nil {
			_, err := d.stop()
			d = nil
			if err != nil {
				return err
			}
			hc.CloseIdleConnections()
		}
		t0 := time.Now()
		var err error
		if d, err = startDaemon(ctx, b.daemonBin, logPath); err != nil {
			return err
		}
		for j, body := range bodies {
			status, err := post(ctx, hc, "http://"+d.addr+"/plan", body, &resp)
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("priming /plan %d: status %d: %v %s", j, status, err, resp.Bytes())
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	b.metrics["setup_s"] = median(setups)
	b.note("set-up (boot + prime %d plans) %v s", len(bodies), setups)

	var set *gnnSet
	if load.path == "gnn" {
		var err error
		if set, err = b.gnnSet(ctx); err != nil {
			return err
		}
	}

	url := "http://" + d.addr
	var next atomic.Int64
	warm := runClients(load.clients, func() *clientLog {
		return b.client(ctx, hc, load.path, url, time.Now().Add(b.warmup()), &next, set)
	})
	before, err := d.snapshot(ctx, hc)
	if err != nil {
		return err
	}
	until := time.Now().Add(b.seconds)
	start := time.Now()
	logs := runClients(load.clients, func() *clientLog {
		return b.client(ctx, hc, load.path, url, until, &next, set)
	})
	elapsed := time.Since(start).Seconds()
	if err := ctx.Err(); err != nil {
		return err
	}
	after, err := d.snapshot(ctx, hc)
	if err != nil {
		return err
	}
	ru, err := d.stop()
	d = nil
	if err != nil {
		return err
	}

	// Warm-up requests count as attempted and are checked like the rest;
	// only their latencies are left out.
	var lat []float64
	kept := map[int][]byte{}
	for i, l := range append(warm, logs...) {
		b.attempted += l.attempted
		b.failed += l.failed
		for _, p := range l.problems {
			b.note("request failed: %s", p)
		}
		if i >= len(warm) {
			lat = append(lat, l.latMS...)
		}
		for idx, plan := range l.kept {
			kept[idx] = plan
		}
	}
	if err := b.checkPlans(ctx, kept); err != nil {
		return err
	}

	b.note("%s: %d requests, p50 %.2f ms, p95 %.2f ms", load.path, len(lat), median(lat), percentile(lat, 95))
	if len(lat) < tailSupport && !b.smoke {
		return fmt.Errorf("%s: %d samples in %v, fewer than the %d a p95 needs", load.path, len(lat), b.seconds, tailSupport)
	}
	if len(lat) == 0 {
		return fmt.Errorf("%s: no request succeeded", load.path)
	}
	n := float64(len(lat))
	b.opPath = load.path
	b.metrics["p50_ms"] = median(lat)
	b.metrics["p95_ms"] = percentile(lat, 95)
	b.metrics["ops_per_s"] = n / elapsed
	b.metrics["peak_rss_mb"] = maxRSSMB(ru)
	b.metrics["cpu_ms_per_op"] = (after.cpu - before.cpu) * 1000 / n

	// A series the daemon no longer exports is an error, not a zero delta.
	var missing []string
	delta := func(series string) float64 {
		a, okA := after.series[series]
		z, okZ := before.series[series]
		if !okA || !okZ {
			missing = append(missing, series)
		}
		return a - z
	}
	b.clientMS = mean(lat)
	b.programMS = delta("httpd_"+load.path+"_latency_ns_sum") / delta("httpd_"+load.path+"_latency_ns_count") / 1e6
	builds, hits := delta("planstore_builds"), delta("planstore_hits_mem")+delta("planstore_hits_disk")
	coalesced := delta("planstore_coalesced")
	b.metrics["planstore.builds"] = builds
	b.metrics["planstore.hits"] = hits
	b.metrics["planstore.coalesced"] = coalesced
	b.metrics["planstore.rejected"] = delta("planstore_rejected")
	b.metrics["planstore.hit_ratio"] = hits / (hits + builds + coalesced)
	b.metrics["runtime.alloc_mb_per_op"] = (after.totalAlloc - before.totalAlloc) / mib / n
	b.metrics["runtime.gc_cycles"] = after.numGC - before.numGC
	if len(missing) > 0 {
		return fmt.Errorf("hottilesd /metrics lacks %s", strings.Join(missing, ", "))
	}
	return nil
}

// gnnBodies are the /gnn request bodies: two per class.
func (b *bench) gnnBodies() [][]byte {
	bodies := make([][]byte, 2*len(b.inputs))
	for j := range bodies {
		bodies[j] = b.inputs.body(nil, b.seed, gnnStream, j)
	}
	return bodies
}

// checkPlans decodes the sampled /plan responses and compares each with
// the plan the bench builds in process from the same body.
func (b *bench) checkPlans(ctx context.Context, kept map[int][]byte) error {
	idxs := make([]int, 0, len(kept))
	for idx := range kept {
		idxs = append(idxs, idx)
	}
	slices.Sort(idxs)
	for _, idx := range idxs {
		want, _, err := b.buildPlan(ctx, nil, b.inputs.body(nil, b.seed, planStream, idx))
		if err != nil {
			return err
		}
		got, err := hotcore.ReadPlan(bytes.NewReader(kept[idx]))
		b.check(err == nil && samePlan(got, want), "/plan response %d differs from the in-process plan (decode error %v)", idx, err)
	}
	b.note("checked %d /plan responses against in-process plans", len(idxs))
	return nil
}

// samePlan compares the decisions two plans carry.
func samePlan(a, b *hotcore.Prep) bool {
	return slices.Equal(a.Partition.Hot, b.Partition.Hot) &&
		a.Partition.Heuristic == b.Partition.Heuristic &&
		a.Partition.Predicted == b.Partition.Predicted &&
		a.Grid.NNZ() == b.Grid.NNZ()
}

// clientLog is what one client saw in the timed phase.
type clientLog struct {
	latMS             []float64 // successful latencies
	attempted, failed int
	problems          []string
	kept              map[int][]byte // sampled /plan responses by body index
}

// done records one finished request and reports whether it succeeded.
func (l *clientLog) done(path string, lat time.Duration, status int, err error) bool {
	l.attempted++
	if err != nil || status != http.StatusOK {
		l.failed++
		l.problems = append(l.problems, fmt.Sprintf("%s: status %d: %v", path, status, err))
		return false
	}
	l.latMS = append(l.latMS, float64(lat.Nanoseconds())/1e6)
	return true
}

// runClients runs n closed-loop clients at once and returns what each saw.
func runClients(n int, client func() *clientLog) []*clientLog {
	logs := make([]*clientLog, n)
	var wg sync.WaitGroup
	for i := range logs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			logs[i] = client()
		}()
	}
	wg.Wait()
	return logs
}

// client runs one closed-loop client of path until the deadline.
func (b *bench) client(ctx context.Context, hc *http.Client, path, url string, until time.Time, next *atomic.Int64, set *gnnSet) *clientLog {
	if path == "plan" {
		return b.planClient(ctx, hc, url, until, next)
	}
	return gnnClient(ctx, hc, url, until, next, set)
}

// planClient posts never-repeated bodies to /plan until the deadline.
func (b *bench) planClient(ctx context.Context, hc *http.Client, url string, until time.Time, next *atomic.Int64) *clientLog {
	l := &clientLog{kept: map[int][]byte{}}
	var body []byte
	var resp bytes.Buffer
	for ctx.Err() == nil && time.Now().Before(until) {
		idx := int(next.Add(1) - 1)
		body = b.inputs.body(body[:0], b.seed, planStream, idx)
		t0 := time.Now()
		status, err := post(ctx, hc, url+"/plan", body, &resp)
		if l.done("plan", time.Since(t0), status, err) && (idx < len(b.inputs) || idx%keepEvery == 0) {
			l.kept[idx] = bytes.Clone(resp.Bytes())
		}
	}
	return l
}

// gnnClient posts the primed GNN bodies round-robin to /gnn until the
// deadline, checking every response against the in-process reference.
func gnnClient(ctx context.Context, hc *http.Client, url string, until time.Time, next *atomic.Int64, set *gnnSet) *clientLog {
	l := &clientLog{}
	var resp bytes.Buffer
	target := url + "/gnn?layers=" + strconv.Itoa(gnnLayers)
	for ctx.Err() == nil && time.Now().Before(until) {
		j := int(next.Add(1)-1) % len(set.bodies)
		t0 := time.Now()
		status, err := post(ctx, hc, target, set.bodies[j], &resp)
		if !l.done("gnn", time.Since(t0), status, err) {
			continue
		}
		var got gnnResponse
		if err := json.Unmarshal(resp.Bytes(), &got); err != nil || !set.want[j].matches(&got) {
			l.failed++
			l.problems = append(l.problems, fmt.Sprintf("gnn body %d: response %s differs from the in-process run", j, bytes.TrimSpace(resp.Bytes())))
		}
	}
	return l
}

// post sends body and reads the whole response into into.
func post(ctx context.Context, hc *http.Client, url string, body []byte, into *bytes.Buffer) (int, error) {
	return fetch(ctx, hc, http.MethodPost, url, bytes.NewReader(body), into)
}

// fetch makes one request and reads the whole response into into.
func fetch(ctx context.Context, hc *http.Client, method, url string, body io.Reader, into *bytes.Buffer) (int, error) {
	into.Reset()
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return 0, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = into.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// daemon is one hottilesd process on a loopback port.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the process has exited
	err  error         // its Wait result, valid after done
}

// startDaemon boots hottilesd with its default flags on an ephemeral port,
// logging to logPath, and returns once it reports its address.
func startDaemon(ctx context.Context, bin, logPath string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = childAttr()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	timeout := time.After(30 * time.Second)
	for {
		select {
		case <-d.done:
			log, _ := os.ReadFile(logPath)
			return nil, fmt.Errorf("hottilesd exited during start-up: %v\n%s", d.err, log)
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-timeout:
			d.stop()
			return nil, fmt.Errorf("hottilesd reported no address within 30 s")
		case <-tick.C:
			log, err := os.ReadFile(logPath)
			if err != nil {
				d.stop()
				return nil, err
			}
			if d.addr = listenAddr(log); d.addr != "" {
				return d, nil
			}
		}
	}
}

// listenAddr finds the address in the daemon's hottilesd.listen log line.
func listenAddr(log []byte) string {
	sc := bufio.NewScanner(bytes.NewReader(log))
	for sc.Scan() {
		var line struct{ Msg, Addr string }
		if json.Unmarshal(sc.Bytes(), &line) == nil && line.Msg == "hottilesd.listen" {
			return line.Addr
		}
	}
	return ""
}

// stop drains the daemon with SIGTERM, kills it if the drain hangs, and
// returns its resource usage.
func (d *daemon) stop() (*syscall.Rusage, error) {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
		return nil, fmt.Errorf("hottilesd did not drain within 30 s")
	}
	if d.err != nil {
		return nil, fmt.Errorf("hottilesd: %w", d.err)
	}
	return rusageOf(d.cmd.ProcessState), nil
}

// daemonSnap is the daemon's own accounting at one instant.
type daemonSnap struct {
	series            map[string]float64 // /metrics samples by series name
	totalAlloc, numGC float64            // runtime memstats
	cpu               float64            // user+system seconds
}

func (d *daemon) snapshot(ctx context.Context, hc *http.Client) (daemonSnap, error) {
	s := daemonSnap{series: map[string]float64{}}
	var buf bytes.Buffer
	if err := get(ctx, hc, "http://"+d.addr+"/metrics", &buf); err != nil {
		return s, err
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			s.series[name] = v
		}
	}
	if err := get(ctx, hc, "http://"+d.addr+"/debug/vars", &buf); err != nil {
		return s, err
	}
	var vars struct {
		Memstats *struct{ TotalAlloc, NumGC float64 } `json:"memstats"`
	}
	if err := json.Unmarshal(buf.Bytes(), &vars); err != nil {
		return s, fmt.Errorf("/debug/vars: %w", err)
	}
	if vars.Memstats == nil {
		return s, fmt.Errorf("/debug/vars has no memstats")
	}
	s.totalAlloc, s.numGC = vars.Memstats.TotalAlloc, vars.Memstats.NumGC
	var err error
	s.cpu, err = procCPU(d.cmd.Process.Pid)
	return s, err
}

func get(ctx context.Context, hc *http.Client, url string, into *bytes.Buffer) error {
	status, err := fetch(ctx, hc, http.MethodGet, url, nil, into)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", url, status)
	}
	return err
}

// procCPU reads a live process's user+system time from /proc. Linux counts
// it in USER_HZ ticks, which is 100 per second on every supported
// architecture.
func procCPU(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3 (state);
	// utime and stime are fields 14 and 15.
	f := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: too few fields", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad times", pid)
	}
	return (utime + stime) / 100, nil
}
