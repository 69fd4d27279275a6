package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"time"

	"autonosql"
	"autonosql/internal/serve"
)

// sweepDuration is each live_sweep variant's simulated length; windows are
// one second.
const sweepDuration = 40 * time.Second

// sweepSetupWarmups and sweepSetupTrials are how many server start + job
// acceptance set-ups a live_sweep metric run makes before its measured
// repeats, untimed and timed.
const (
	sweepSetupWarmups = 3
	sweepSetupTrials  = 31
)

// sweepPlan is the suite live_sweep submits: controllers none/reactive/smart
// × two tenant mixes × two fault profiles. Fault plans and tenant lists are
// submitted in full: the daemon decodes the grid by value, so bare profile
// names would run with no faults and no tenants.
type sweepPlan struct {
	base     autonosql.ScenarioSpec
	grid     autonosql.Grid
	expected map[string]autonosql.Variant
	order    []string
}

func newSweepPlan(seed int64, observe bool) (sweepPlan, error) {
	base := autonosql.DefaultScenarioSpec()
	base.Seed = seed
	base.Duration = sweepDuration
	base.SampleInterval = time.Second
	if observe {
		base.Observe = &autonosql.ObserveSpec{Profile: true}
	}
	var faults []autonosql.FaultProfile
	for _, name := range []string{"crash", "partition"} {
		p, ok := autonosql.LookupFaultProfile(name, sweepDuration)
		if !ok {
			return sweepPlan{}, fmt.Errorf("fault profile %q is missing", name)
		}
		faults = append(faults, p)
	}
	var mixes []autonosql.TenantMix
	for _, name := range []string{"gold-bronze", "three-tier"} {
		m, ok := autonosql.LookupTenantMix(name)
		if !ok {
			return sweepPlan{}, fmt.Errorf("tenant mix %q is missing", name)
		}
		mixes = append(mixes, m)
	}
	grid := autonosql.Grid{
		Controllers: []autonosql.ControllerMode{autonosql.ControllerNone, autonosql.ControllerReactive, autonosql.ControllerSmart},
		Faults:      faults,
		TenantMixes: mixes,
	}
	p := sweepPlan{base: base, grid: grid, expected: map[string]autonosql.Variant{}}
	for _, v := range autonosql.ExpandGrid(base, grid) {
		p.expected[v.Name] = v
		p.order = append(p.order, v.Name)
	}
	return p, nil
}

// windowsPerVariant is how many windows each variant must stream.
func (p sweepPlan) windowsPerVariant() int { return int(p.base.Duration / p.base.SampleInterval) }

// liveServer is the daemon's handler served over loopback, with a client
// limited to one connection.
type liveServer struct {
	url  string
	hs   *http.Server
	done chan error
	tr   *http.Transport
	hc   *http.Client
}

func startServer() (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &liveServer{
		url:  "http://" + ln.Addr().String(),
		hs:   &http.Server{Handler: serve.NewServer(serve.Options{}).Handler()},
		done: make(chan error, 1),
		tr:   &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
	s.hc = &http.Client{Transport: s.tr}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the server and waits for its accept loop to exit.
func (s *liveServer) close() error {
	s.tr.CloseIdleConnections()
	err := s.hs.Close()
	if serveErr := <-s.done; !errors.Is(serveErr, http.ErrServerClosed) {
		return serveErr
	}
	return err
}

// sweepClient issues the benchmark's requests, counting each as one unit.
type sweepClient struct {
	srv      *liveServer
	t        *tally
	log      *spanLog
	parent   int
	requests int
}

// call makes one request and returns the body of a response with the wanted
// status; any other outcome is a failed unit and an error.
func (c *sweepClient) call(method, path string, body []byte, want int) ([]byte, error) {
	c.requests++
	unit := method + " " + path
	id := c.log.begin(unit, c.parent)
	defer c.log.end(id)
	req, err := http.NewRequest(method, c.srv.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.srv.hc.Do(req)
	if err != nil {
		c.t.record(unit, err.Error())
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != want {
		err = fmt.Errorf("status %d, want %d: %s", resp.StatusCode, want, bytes.TrimSpace(raw))
	}
	if err != nil {
		c.t.record(unit, err.Error())
		return nil, err
	}
	c.t.record(unit)
	return raw, nil
}

func (c *sweepClient) submit(p sweepPlan, autostart bool) (string, error) {
	base, err := json.Marshal(p.base)
	if err != nil {
		return "", err
	}
	grid, err := json.Marshal(p.grid)
	if err != nil {
		return "", err
	}
	body, err := json.Marshal(serve.JobRequest{
		Kind: "suite", Name: "perfbench",
		Suite:     &serve.SuiteRequest{Base: base, Grid: grid, Parallelism: runtime.NumCPU()},
		Autostart: autostart,
	})
	if err != nil {
		return "", err
	}
	raw, err := c.call(http.MethodPost, "/api/jobs", body, http.StatusCreated)
	if err != nil {
		return "", err
	}
	var st serve.JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		return "", fmt.Errorf("decoding job status: %w", err)
	}
	return st.ID, nil
}

// sweepRun is one timed live_sweep repeat.
type sweepRun struct {
	wall         time.Duration
	cpu          time.Duration // process CPU between submit and report fetched
	gaps         []time.Duration
	windows      int
	bytes        int64
	requests     int
	reports      []*autonosql.Report
	fingerprints map[string]string
}

// sweepSetup times one server start, grid expansion and validation, and job
// acceptance; the pending job is then cancelled and the server stopped.
func sweepSetup(p sweepPlan, t *tally) (time.Duration, error) {
	t0 := time.Now()
	srv, err := startServer()
	if err != nil {
		return 0, err
	}
	c := &sweepClient{srv: srv, t: t}
	id, err := c.submit(p, false)
	d := time.Since(t0)
	if err == nil {
		_, err = c.call(http.MethodPost, "/api/jobs/"+id+"/cancel", nil, http.StatusOK)
	}
	if cerr := srv.close(); err == nil {
		err = cerr
	}
	return d, err
}

// runSweep submits the suite, streams every window, fetches the report and
// the run metadata, and checks them against the plan. first, when non-nil,
// holds the fingerprints every variant must reproduce.
func runSweep(p sweepPlan, t *tally, log *spanLog, first map[string]string) (sweepRun, error) {
	var r sweepRun
	root := log.begin("live_sweep", 0)
	defer log.end(root)
	srv, err := startServer()
	if err != nil {
		return r, err
	}
	c := &sweepClient{srv: srv, t: t, log: log, parent: root}
	submitted, c0 := time.Now(), cpuTime()
	id, err := c.submit(p, true)
	if err == nil {
		err = c.stream(id, &r)
	}
	var suite *autonosql.SuiteReport
	if err == nil {
		var raw []byte
		if raw, err = c.call(http.MethodGet, "/api/jobs/"+id+"/report", nil, http.StatusOK); err == nil {
			suite, err = autonosql.ReadSuiteReportJSON(bytes.NewReader(raw))
		}
	}
	r.wall, r.cpu = time.Since(submitted), cpuTime()-c0
	var meta serve.MetaEnvelope
	if err == nil {
		var raw []byte
		if raw, err = c.call(http.MethodGet, "/api/jobs/"+id+"/meta", nil, http.StatusOK); err == nil {
			err = json.Unmarshal(raw, &meta)
		}
	}
	if cerr := srv.close(); err == nil {
		err = cerr
	}
	r.requests = c.requests
	if err != nil {
		return r, err
	}

	// The suite as a whole: every variant done, every window streamed.
	var problems []string
	if meta.State != serve.StateDone || meta.Meta.Failed != 0 || meta.Meta.Variants != len(p.order) {
		problems = append(problems, fmt.Sprintf("job %s: %d of %d variants attempted, %d failed",
			meta.State, meta.Meta.Variants, len(p.order), meta.Meta.Failed))
	}
	if want := len(p.order) * p.windowsPerVariant(); r.windows != want {
		problems = append(problems, fmt.Sprintf("streamed %d windows, want %d", r.windows, want))
	}
	t.record("suite", problems...)

	// Each variant: its report carries the faults and tenants its cell asked
	// for, and reproduces the seed's fingerprint.
	r.fingerprints = map[string]string{}
	seen := map[string]bool{}
	for _, v := range suite.Variants {
		want, ok := p.expected[v.Name]
		var vp []string
		switch {
		case !ok:
			vp = append(vp, "not in the submitted grid")
		case v.Report == nil:
			vp = append(vp, "no report")
		default:
			vp = checkVariant(want, v.Report)
			fp := v.Report.Fingerprint()
			r.fingerprints[v.Name] = fp
			if first != nil && first[v.Name] != fp {
				vp = append(vp, "report fingerprint differs from the seed's first repeat")
			}
			r.reports = append(r.reports, v.Report)
		}
		seen[v.Name] = true
		t.record("variant "+v.Name, vp...)
	}
	for _, name := range p.order {
		if !seen[name] {
			t.record("variant "+name, "missing from the report")
		}
	}
	return r, nil
}

func checkVariant(want autonosql.Variant, rep *autonosql.Report) []string {
	var p []string
	if !reflect.DeepEqual(rep.Spec.Faults, want.Spec.Faults) || !reflect.DeepEqual(rep.Spec.Tenants, want.Spec.Tenants) {
		p = append(p, "the run's fault plan or tenant list differs from the submitted cell")
	}
	if len(rep.Faults) != len(want.Spec.Faults.Faults) {
		p = append(p, fmt.Sprintf("%d fault windows, want %d", len(rep.Faults), len(want.Spec.Faults.Faults)))
	}
	if len(rep.Tenants) != len(want.Spec.Tenants) {
		p = append(p, fmt.Sprintf("%d tenant sections, want %d", len(rep.Tenants), len(want.Spec.Tenants)))
	} else {
		for i, tr := range rep.Tenants {
			if tr.Name != want.Spec.Tenants[i].Name {
				p = append(p, fmt.Sprintf("tenant section %d is %q, want %q", i, tr.Name, want.Spec.Tenants[i].Name))
			}
		}
	}
	if rep.Reads+rep.Writes == 0 {
		p = append(p, "no client operations")
	}
	return p
}

// stream follows the job's window stream to its end, timing the gap between
// consecutive windows as the client receives them.
func (c *sweepClient) stream(id string, r *sweepRun) error {
	c.requests++
	unit := "GET /api/jobs/" + id + "/stream"
	sid := c.log.begin(unit, c.parent)
	defer c.log.end(sid)
	resp, err := c.srv.hc.Get(c.srv.url + "/api/jobs/" + id + "/stream")
	if err != nil {
		c.t.record(unit, err.Error())
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		err := fmt.Errorf("status %d", resp.StatusCode)
		c.t.record(unit, err.Error())
		return err
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	var last time.Time
	var problems []string
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			now := time.Now()
			var mw serve.MetricWindow
			if jerr := json.Unmarshal(line, &mw); jerr != nil {
				problems = append(problems, "undecodable window: "+jerr.Error())
			} else if mw.Seq != r.windows {
				problems = append(problems, fmt.Sprintf("window sequence %d, want %d", mw.Seq, r.windows))
			}
			if r.windows > 0 {
				r.gaps = append(r.gaps, now.Sub(last))
				c.log.add("window", sid, last, now)
			}
			last = now
			r.windows++
			r.bytes += int64(len(line))
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			problems = append(problems, err.Error())
			break
		}
	}
	c.t.record(unit, problems...)
	if len(problems) > 0 {
		return errors.New(problems[0])
	}
	return nil
}

func measureSweep(seed int64, budget time.Duration, t *tally) (map[string]float64, []string, error) {
	plans := make([]sweepPlan, subSeeds)
	for k := range plans {
		var err error
		if plans[k], err = newSweepPlan(subSeed(seed, k), false); err != nil {
			return nil, nil, err
		}
	}
	setups, err := timeSetups(func() (time.Duration, error) { return sweepSetup(plans[0], t) }, sweepSetupWarmups, sweepSetupTrials)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	var runs []sweepRun
	var opsRate, scenRate, rss, wallScen []float64
	var gaps []time.Duration
	firsts := make([]map[string]string, subSeeds)
	for rep := newRepeater(budget, minRepeats); rep.next(); {
		k := len(runs) % subSeeds
		if err := resetPeakRSS(); err != nil {
			return nil, nil, err
		}
		r, err := runSweep(plans[k], t, nil, firsts[k])
		if err != nil {
			return nil, nil, err
		}
		peak, err := peakRSSMB()
		if err != nil {
			return nil, nil, err
		}
		if firsts[k] == nil {
			firsts[k] = r.fingerprints
		}
		runs = append(runs, r)
		var ops uint64
		for _, rep := range r.reports {
			ops += rep.Reads + rep.Writes
		}
		opsRate = append(opsRate, float64(ops)/r.cpu.Seconds())
		scenRate = append(scenRate, float64(len(r.reports))/r.cpu.Seconds())
		wallScen = append(wallScen, float64(len(r.reports))/r.wall.Seconds())
		gaps = append(gaps, r.gaps...)
		rss = append(rss, peak)
	}
	gapMs := millis(gaps)
	values := map[string]float64{
		"setup_s":           median(setups),
		"sim_ops_per_s":     median(opsRate),
		"scenarios_per_s":   median(scenRate),
		"stream_gap_p99_ms": quantile(gapMs, 0.99),
		"peak_rss_mb":       median(rss),
	}
	notes := []string{
		fmt.Sprintf("%d repeats of %d variants x %v simulated at suite parallelism %d, cycling over %d seeds; medians over repeats", len(runs), len(plans[0].order), sweepDuration, runtime.NumCPU(), subSeeds),
		fmt.Sprintf("scenarios_per_s per repeat: %.3f; peak_rss_mb per repeat: %.1f", scenRate, rss),
		fmt.Sprintf("per wall-clock second instead: scenarios_per_s %.3f (median)", median(wallScen)),
		fmt.Sprintf("setup_s is server start + grid expansion + job acceptance, median of %d set-ups after %d untimed", len(setups), sweepSetupWarmups),
		fmt.Sprintf("stream_gap_p99_ms: p99 of %d window gaps at the client (p50 %.3f ms)", len(gapMs), quantile(gapMs, 0.5)),
	}
	return values, notes, nil
}

func traceSweep(seed int64, budget time.Duration, t *tally) (map[string]float64, []string, error) {
	plain, err := newSweepPlan(subSeed(seed, 0), false)
	if err != nil {
		return nil, nil, err
	}
	observed, err := newSweepPlan(subSeed(seed, 0), true)
	if err != nil {
		return nil, nil, err
	}
	drivers, err := layerDrivers()
	if err != nil {
		return nil, nil, err
	}
	log := newSpanLog()
	var a attribution
	var s passStats
	var first map[string]string
	for rep := newRepeater(budget, 1); rep.next(); {
		var r0, r sweepRun
		err := alternate(len(s.plainCPU)%2 == 1, func() error {
			var err error
			r0, err = runSweep(plain, t, nil, first)
			if first == nil {
				first = r0.fingerprints
			}
			s.busyWindow = append(s.busyWindow, r0.cpu.Seconds()/(r0.wall.Seconds()*float64(runtime.NumCPU())))
			return err
		}, func() error {
			return s.memDelta(func() error {
				return a.profiled(func() error {
					var err error
					r, err = runSweep(observed, t, log, first)
					return err
				})
			})
		})
		if err != nil {
			return nil, nil, err
		}
		for _, rep := range r.reports {
			s.addReport(rep)
		}
		s.requests += r.requests
		s.streamed += r.windows
		s.bytesStreamed += r.bytes
		s.serveGaps = append(s.serveGaps, r.gaps...)
		s.plainCPU = append(s.plainCPU, r0.cpu.Seconds())
		s.tracedCPU = append(s.tracedCPU, r.cpu.Seconds())
	}
	notes, err := finishTrace("live_sweep", seed, &a, &s, log)
	return layerValues(&a, &s, drivers), notes, err
}
