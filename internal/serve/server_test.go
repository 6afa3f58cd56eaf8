package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ptbsim"
	"ptbsim/internal/store"
)

// newTestServer wires the full stack — hub, store, experiment, server —
// the way cmd/ptbserve does.
func newTestServer(t testing.TB, dir string, expOpts ...ptbsim.Option) (*Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	hub := NewHub()
	opts := append([]ptbsim.Option{
		ptbsim.WithScale(0.02),
		ptbsim.WithParallelism(2),
		ptbsim.WithCache(st),
		ptbsim.WithObserver(256, hub),
	}, expOpts...)
	exp := ptbsim.NewExperiment(opts...)
	t.Cleanup(exp.Close)
	srv := New(exp, st, hub)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t testing.TB, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestRunEndpoint(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	req := runRequest{Config: ptbsim.Config{Benchmark: "fft", Cores: 2, Technique: ptbsim.None}}

	resp := postJSON(t, ts.URL+"/v1/runs", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var first runResponse
	if err := json.NewDecoder(resp.Body).Decode(&first); err != nil {
		t.Fatal(err)
	}
	if first.Result == nil || first.Cached || first.Digest == "" {
		t.Fatalf("first run: result=%v cached=%v digest=%q", first.Result, first.Cached, first.Digest)
	}

	// Second identical request: served from cache, identical digest.
	resp2 := postJSON(t, ts.URL+"/v1/runs", req)
	defer resp2.Body.Close()
	var second runResponse
	if err := json.NewDecoder(resp2.Body).Decode(&second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("second identical run not served from cache")
	}
	if second.Digest != first.Digest {
		t.Errorf("digest drifted: %s vs %s", first.Digest, second.Digest)
	}

	// The result is addressable by its digest fragment.
	resp3, err := http.Get(ts.URL + "/v1/results/" + first.Digest)
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/results/%s = %d", first.Digest, resp3.StatusCode)
	}
}

func TestRunEndpointRejectsBadConfig(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	resp := postJSON(t, ts.URL+"/v1/runs", runRequest{Config: ptbsim.Config{Benchmark: "nope", Cores: 2}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestOversizedBody413(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	// A syntactically valid prefix whose string never ends before the
	// cap: the decoder must stop at maxBodyBytes, not buffer the rest.
	body := `{"config":{"benchmark":"` + strings.Repeat("a", maxBodyBytes+1) + `"}}`
	for _, path := range []string{"/v1/runs", "/v1/sweeps"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status = %d, want 413", path, resp.StatusCode)
		}
	}
}

func TestBackpressure429(t *testing.T) {
	// One worker, one queue slot: hammer distinct configs concurrently
	// until the queue overflows into 429 + Retry-After.
	_, ts := newTestServer(t, t.TempDir(),
		ptbsim.WithParallelism(1), ptbsim.WithQueue(1))
	benches := []string{"barnes", "ocean", "radix", "fft", "cholesky", "raytrace"}
	var wg sync.WaitGroup
	codes := make([]int, len(benches))
	retryAfter := make([]string, len(benches))
	for i, b := range benches {
		i, b := i, b
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postJSON(t, ts.URL+"/v1/runs", runRequest{
				Config: ptbsim.Config{Benchmark: b, Cores: 16, Technique: ptbsim.PTB},
			})
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}()
	}
	wg.Wait()
	var rejected int
	for i, code := range codes {
		switch code {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			rejected++
			if retryAfter[i] == "" {
				t.Error("429 without Retry-After")
			}
		default:
			t.Errorf("unexpected status %d", code)
		}
	}
	if rejected == 0 {
		t.Skip("queue never overflowed (machine too fast for the window)")
	}
}

func TestSweepEndpointWarmSecondPass(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	req := sweepRequest{
		Benchmarks: []string{"fft", "radix"},
		CoreCounts: []int{2, 4},
		Techniques: []string{"none", "ptb"},
	}
	resp := postJSON(t, ts.URL+"/v1/sweeps", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var cold sweepResponse
	if err := json.NewDecoder(resp.Body).Decode(&cold); err != nil {
		t.Fatal(err)
	}
	if cold.Total != 8 || cold.Failed != 0 {
		t.Fatalf("cold pass: total=%d failed=%d, want 8/0", cold.Total, cold.Failed)
	}
	if cold.Fresh+cold.Coalesced != 8 {
		t.Fatalf("cold pass: fresh=%d coalesced=%d, want sum 8", cold.Fresh, cold.Coalesced)
	}

	resp2 := postJSON(t, ts.URL+"/v1/sweeps", req)
	defer resp2.Body.Close()
	var warm sweepResponse
	if err := json.NewDecoder(resp2.Body).Decode(&warm); err != nil {
		t.Fatal(err)
	}
	if warm.Cached != warm.Total {
		t.Fatalf("warm pass: cached=%d of %d, want 100%%", warm.Cached, warm.Total)
	}
	for i := range cold.Results {
		if cold.Results[i].Digest != warm.Results[i].Digest {
			t.Errorf("result %d digest drifted: %s vs %s",
				i, cold.Results[i].Digest, warm.Results[i].Digest)
		}
	}
}

func TestSweepEndpointRejectsBadTechnique(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	resp := postJSON(t, ts.URL+"/v1/sweeps", sweepRequest{Techniques: []string{"warp"}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	postJSON(t, ts.URL+"/v1/runs", runRequest{
		Config: ptbsim.Config{Benchmark: "fft", Cores: 2, Technique: ptbsim.None},
	}).Body.Close()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsJSON
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Runs != 1 || st.Fresh != 1 || st.CacheLen != 1 {
		t.Errorf("stats after one run: %+v", st)
	}
	if st.StoreDir == "" {
		t.Error("stats lack the store directory")
	}
}

func TestTelemetrySSE(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/telemetry", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	// Drive one run while subscribed; both sample and run events must
	// arrive on the stream.
	go func() {
		postJSON(t, ts.URL+"/v1/runs", runRequest{
			Config: ptbsim.Config{Benchmark: "fft", Cores: 2, Technique: ptbsim.None},
		}).Body.Close()
	}()

	events := map[string]bool{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			events[name] = true
		}
		if events["sample"] && events["run"] {
			return
		}
	}
	t.Fatalf("stream ended with events %v (scan err %v), want sample and run", events, sc.Err())
}

func TestShutdownDrainsAndPersists(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, dir)
	cfg := ptbsim.Config{Benchmark: "ocean", Cores: 2, Technique: ptbsim.None}

	resp := postJSON(t, ts.URL+"/v1/runs", runRequest{Config: cfg})
	var first runResponse
	if err := json.NewDecoder(resp.Body).Decode(&first); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// A second server over the same store directory — the restart — must
	// answer from the persisted cache with an identical digest.
	_, ts2 := newTestServer(t, dir)
	resp2 := postJSON(t, ts2.URL+"/v1/runs", runRequest{Config: cfg})
	defer resp2.Body.Close()
	var second runResponse
	if err := json.NewDecoder(resp2.Body).Decode(&second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("restarted server re-simulated a persisted config")
	}
	if second.Digest != first.Digest {
		t.Errorf("digest drifted across restart: %s vs %s", first.Digest, second.Digest)
	}
	if fmt.Sprint(second.Result.Digest()) != fmt.Sprint(first.Result.Digest()) {
		t.Error("full digests differ across restart")
	}
}

func TestTimeoutMSRejectsAbsurdValues(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	cfg := ptbsim.Config{Benchmark: "fft", Cores: 2, Technique: ptbsim.None}
	for _, ms := range []int64{-1, 3_600_001} {
		resp := postJSON(t, ts.URL+"/v1/runs", runRequest{Config: cfg, TimeoutMS: ms})
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("timeout_ms=%d: status = %d, want 400", ms, resp.StatusCode)
		}
		resp2 := postJSON(t, ts.URL+"/v1/sweeps", sweepRequest{
			Benchmarks: []string{"fft"}, CoreCounts: []int{2}, Techniques: []string{"none"},
			TimeoutMS: ms,
		})
		resp2.Body.Close()
		if resp2.StatusCode != http.StatusBadRequest {
			t.Errorf("sweep timeout_ms=%d: status = %d, want 400", ms, resp2.StatusCode)
		}
	}
}

func TestTimeoutMSDeadline504(t *testing.T) {
	// Full-scale barnes on 32 cores takes far longer than 1ms: the run
	// must fail with the structured 504-class deadline error.
	_, ts := newTestServer(t, t.TempDir(), ptbsim.WithScale(1))
	resp := postJSON(t, ts.URL+"/v1/runs", runRequest{
		Config:    ptbsim.Config{Benchmark: "barnes", Cores: 32, Technique: ptbsim.PTB},
		TimeoutMS: 1,
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	var rr runResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if rr.Error == "" || !strings.Contains(rr.Error, "deadline") {
		t.Fatalf("504 body lacks a structured deadline error: %+v", rr)
	}
}

// waitJournalDrained polls until the journal has no pending records (the
// completion watcher runs on its own goroutine).
func waitJournalDrained(t *testing.T, jr *store.Journal) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if jr.Pending() == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("journal still has %d pending records", jr.Pending())
}

func TestJournalAcceptedThenDone(t *testing.T) {
	dir := t.TempDir()
	jr, pending, err := store.OpenJournal(filepath.Join(dir, "jobs.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	if len(pending) != 0 {
		t.Fatalf("fresh journal has %d pending", len(pending))
	}
	srv, ts := newTestServer(t, dir)
	srv.AttachJournal(jr)

	resp := postJSON(t, ts.URL+"/v1/runs", runRequest{
		Config: ptbsim.Config{Benchmark: "fft", Cores: 2, Technique: ptbsim.None},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	waitJournalDrained(t, jr)
}

func TestJournalReplayRecoversInterruptedJob(t *testing.T) {
	dir := t.TempDir()
	wal := filepath.Join(dir, "jobs.wal")
	cfg := ptbsim.Config{Benchmark: "radix", Cores: 2, Technique: ptbsim.None}
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The "crashed" process: a job was accepted and journaled, but the
	// process died before completing it.
	jr0, _, err := store.OpenJournal(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := jr0.Accept(store.JournalRecord{ID: "interrupted-job", Config: cfgJSON, Priority: 3}); err != nil {
		t.Fatal(err)
	}
	jr0.Close()

	// The reboot: replay must resubmit the job, complete it, and clear
	// the journal — zero accepted jobs lost.
	jr, pending, err := store.OpenJournal(wal)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	if len(pending) != 1 {
		t.Fatalf("pending = %+v, want the interrupted job", pending)
	}
	srv, ts := newTestServer(t, dir)
	srv.AttachJournal(jr)
	n, err := srv.ReplayJournal(context.Background(), pending)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("replayed %d jobs, want 1", n)
	}
	waitJournalDrained(t, jr)

	// The recomputed result is in the cache: the same config over HTTP
	// answers cached.
	resp := postJSON(t, ts.URL+"/v1/runs", runRequest{Config: cfg})
	defer resp.Body.Close()
	var rr runResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if !rr.Cached {
		t.Fatal("replayed job's result not served from cache")
	}
}

// openTestJournal opens dir/jobs.wal, closed at test end.
func openTestJournal(t testing.TB, dir string) (*store.Journal, string) {
	t.Helper()
	wal := filepath.Join(dir, "jobs.wal")
	jr, _, err := store.OpenJournal(wal)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jr.Close() })
	return jr, wal
}

// postDecode posts body, demands 200 and decodes the response into out.
func postDecode(t *testing.T, url string, body, out any) {
	t.Helper()
	resp := postJSON(t, url, body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCacheHitsSkipJournal pins the hit path: once a sweep's results
// are cached, repeated cached runs and a fully cached sweep append
// nothing to jobs.wal and leave no goroutine behind.
func TestCacheHitsSkipJournal(t *testing.T) {
	dir := t.TempDir()
	jr, wal := openTestJournal(t, dir)
	srv, ts := newTestServer(t, dir)
	srv.AttachJournal(jr)

	sweep := sweepRequest{Benchmarks: []string{"fft", "radix"}, CoreCounts: []int{2}, Techniques: []string{"none"}}
	var warm sweepResponse
	postDecode(t, ts.URL+"/v1/sweeps", sweep, &warm)
	if warm.Fresh != 2 {
		t.Fatalf("warm-up sweep: %+v, want 2 fresh", warm)
	}
	waitJournalDrained(t, jr)
	before := readFile(t, wal)
	http.DefaultClient.CloseIdleConnections()
	baseline := runtime.NumGoroutine()

	const hits = 20
	for i := 0; i < hits; i++ {
		var rr runResponse
		postDecode(t, ts.URL+"/v1/runs", runRequest{
			Config: ptbsim.Config{Benchmark: "fft", Cores: 2, Technique: ptbsim.None},
		}, &rr)
		if !rr.Cached {
			t.Fatalf("run %d not served from cache", i)
		}
	}
	var hot sweepResponse
	postDecode(t, ts.URL+"/v1/sweeps", sweep, &hot)
	if hot.Cached != hot.Total {
		t.Fatalf("second sweep: %+v, want every member cached", hot)
	}

	if after := readFile(t, wal); !bytes.Equal(before, after) {
		t.Fatalf("cache hits wrote to the journal:\n%s", after[len(before):])
	}
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after cache hits, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMixedSweepJournalsOnlyFreshMembers checks that a sweep with
// cached and fresh members appends accept records for exactly the fresh
// members' keys.
func TestMixedSweepJournalsOnlyFreshMembers(t *testing.T) {
	dir := t.TempDir()
	jr, wal := openTestJournal(t, dir)
	srv, ts := newTestServer(t, dir)
	srv.AttachJournal(jr)

	var warm sweepResponse
	postDecode(t, ts.URL+"/v1/sweeps", sweepRequest{
		Benchmarks: []string{"fft"}, CoreCounts: []int{2}, Techniques: []string{"none", "ptb"},
	}, &warm)
	waitJournalDrained(t, jr)
	before := readFile(t, wal)

	var mixed sweepResponse
	postDecode(t, ts.URL+"/v1/sweeps", sweepRequest{
		Benchmarks: []string{"fft", "radix"}, CoreCounts: []int{2}, Techniques: []string{"none", "ptb"},
	}, &mixed)
	if mixed.Cached != 2 || mixed.Fresh != 2 {
		t.Fatalf("mixed sweep: %+v, want 2 cached and 2 fresh", mixed)
	}
	waitJournalDrained(t, jr)

	want := map[string]bool{}
	for _, rr := range mixed.Results {
		if rr.Cached {
			continue
		}
		// Resubmitting a now-cached config directly yields its key
		// without touching the journal.
		job, err := srv.exp.Submit(context.Background(), rr.Config, 0)
		if err != nil {
			t.Fatal(err)
		}
		want[job.Key()] = true
	}
	got := map[string]int{}
	for _, line := range bytes.Split(bytes.TrimSpace(readFile(t, wal)[len(before):]), []byte("\n")) {
		var rec struct {
			Op string `json:"op"`
			ID string `json:"id"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		if rec.Op == "accept" {
			got[rec.ID]++
		}
	}
	if len(got) != len(want) {
		t.Fatalf("accept records %v, want one per fresh key %v", got, want)
	}
	for id, n := range got {
		if !want[id] || n != 1 {
			t.Fatalf("accept records %v, want one per fresh key %v", got, want)
		}
	}
}

// TestReplayClearsCompletedRecords is the recovery half of the hit
// path: a journaled job whose result reached the store before the crash
// (its done record lost) replays as a cache hit, which journalAccept does
// not record. Replay must clear the record at once, under its own ID —
// also a stale ID that differs from the job's key — or it would come
// back on every boot.
func TestReplayClearsCompletedRecords(t *testing.T) {
	dir := t.TempDir()
	cfg := ptbsim.Config{Benchmark: "fft", Cores: 2, Technique: ptbsim.None}

	// The crashed process: it finished the run (the result is in the
	// store) but died before journaling done.
	srv0, ts0 := newTestServer(t, dir)
	var rr runResponse
	postDecode(t, ts0.URL+"/v1/runs", runRequest{Config: cfg}, &rr)
	job, err := srv0.exp.Submit(context.Background(), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfgJSON, err := json.Marshal(job.Config())
	if err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(dir, "jobs.wal")
	jr0, _, err := store.OpenJournal(wal)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{job.Key(), "stale/" + job.Key()} {
		if err := jr0.Accept(store.JournalRecord{ID: id, Config: cfgJSON}); err != nil {
			t.Fatal(err)
		}
	}
	jr0.Close()

	// The reboot.
	jr, pending, err := store.OpenJournal(wal)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 2 {
		t.Fatalf("pending = %+v, want both records", pending)
	}
	srv, _ := newTestServer(t, dir)
	srv.AttachJournal(jr)
	n, err := srv.ReplayJournal(context.Background(), pending)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("replayed %d records, want 2", n)
	}
	if p := jr.Pending(); p != 0 {
		t.Fatalf("Pending() = %d right after replay, want 0", p)
	}
	jr.Close()

	jr2, pending, err := store.OpenJournal(wal)
	if err != nil {
		t.Fatal(err)
	}
	defer jr2.Close()
	if len(pending) != 0 {
		t.Fatalf("next boot finds %d pending records, want 0: %+v", len(pending), pending)
	}
}

// BenchmarkServeHit measures one cache-hit POST /v1/runs through the
// full HTTP stack with a store and journal attached: the serving hot
// path, where the result is already in the store.
func BenchmarkServeHit(b *testing.B) {
	dir := b.TempDir()
	jr, _ := openTestJournal(b, dir)
	srv, ts := newTestServer(b, dir)
	srv.AttachJournal(jr)
	body, err := json.Marshal(runRequest{Config: ptbsim.Config{Benchmark: "fft", Cores: 2, Technique: ptbsim.None}})
	if err != nil {
		b.Fatal(err)
	}
	post := func() {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status = %d", resp.StatusCode)
		}
	}
	post() // warm: the one fresh run
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}
