// Command ptbload load-tests a live ptbserve instance: it replays many
// concurrent run or sweep requests — most of them duplicates — and
// reports what the service's dedup and cache layers did with them:
// fresh/coalesced/cached counts, hit rates, rejection (429) counts, and
// client-observed latency percentiles. Backpressure is handled the way a
// well-behaved client should: a 429 is retried within a budget, honoring
// the server's Retry-After with jitter, and retried versus abandoned
// requests are reported separately from hard failures. With every request
// carrying a result digest, the output doubles as a correctness probe:
// across concurrency, cache warmth, and server restarts, a configuration
// must always answer with one byte-identical digest.
//
// Usage:
//
//	ptbload -addr localhost:8177 -n 200 -c 32            # 200 duplicate sweeps, 32 in flight
//	ptbload -addr localhost:8177 -mode runs -n 500 -c 64
//	ptbload -addr localhost:8177 -n 200 -assert-single-flight -assert-hit-rate 0.99
//
// Exit status: 0 on success, 1 when an assertion fails, 2 on usage or
// transport errors.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// runResponse mirrors the server's per-configuration answer (the fields
// the harness needs).
type runResponse struct {
	Digest    string `json:"digest"`
	Cached    bool   `json:"cached"`
	Coalesced bool   `json:"coalesced"`
	Error     string `json:"error,omitempty"`
}

// sweepResponse mirrors the server's sweep answer.
type sweepResponse struct {
	Total     int           `json:"total"`
	Fresh     int           `json:"fresh"`
	Cached    int           `json:"cached"`
	Coalesced int           `json:"coalesced"`
	Failed    int           `json:"failed"`
	Results   []runResponse `json:"results"`
}

// outcome is one request's client-side record.
type outcome struct {
	status    int
	latency   time.Duration
	fresh     int
	cached    int
	coalesced int
	failed    int
	retries   int            // 429 responses retried (honoring Retry-After) before this outcome
	abandoned bool           // still 429 after the retry budget ran out
	digests   map[int]string // result slot → digest
	err       error
}

// retryAfter turns a 429's Retry-After header into a bounded, jittered
// sleep: the server's hint (default 1s when absent or unparseable, capped
// at 10s) plus up to 50% random jitter so a fleet of backed-off clients
// doesn't stampede back in lockstep.
func retryAfter(resp *http.Response) time.Duration {
	secs := 1.0
	if v := resp.Header.Get("Retry-After"); v != "" {
		if parsed, err := strconv.ParseFloat(v, 64); err == nil && parsed >= 0 {
			secs = parsed
		}
	}
	if secs > 10 {
		secs = 10
	}
	base := time.Duration(secs * float64(time.Second))
	return base + time.Duration(rand.Int63n(int64(base/2)+1))
}

func main() {
	var (
		addr    = flag.String("addr", "localhost:8177", "ptbserve host:port")
		mode    = flag.String("mode", "sweep", "request shape: sweep (duplicate cross-products) or runs (duplicate single configs)")
		n       = flag.Int("n", 200, "total requests to send")
		c       = flag.Int("c", 32, "concurrent requests in flight")
		scale   = flag.Float64("scale", 0, "workload_scale sent in each config (0 = server default)")
		benches = flag.String("benches", "fft,radix", "benchmarks in the request set")
		cores   = flag.String("cores", "2,4", "core counts in the request set")
		techs   = flag.String("techs", "none,ptb", "techniques in the request set")
		timeout = flag.Duration("timeout", 10*time.Minute, "per-request timeout")

		retries = flag.Int("retries", 3, "retry budget per request after a 429, honoring Retry-After with jitter (0 = give up immediately)")

		assertSF  = flag.Bool("assert-single-flight", false, "fail unless every unique config was simulated exactly once (fresh == unique)")
		assertHit = flag.Float64("assert-hit-rate", -1, "fail unless the cached fraction of answered configs is at least this (e.g. 0.99)")
	)
	flag.Parse()
	if *n < 1 || *c < 1 {
		fmt.Fprintln(os.Stderr, "ptbload: -n and -c must be positive")
		os.Exit(2)
	}

	base := "http://" + *addr
	client := &http.Client{Timeout: *timeout}

	sweepBody := map[string]any{
		"benchmarks": strings.Split(*benches, ","),
		"techniques": strings.Split(*techs, ","),
	}
	var coreList []int
	for _, s := range strings.Split(*cores, ",") {
		var v int
		if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &v); err != nil {
			fmt.Fprintln(os.Stderr, "ptbload: bad -cores:", err)
			os.Exit(2)
		}
		coreList = append(coreList, v)
	}
	sweepBody["core_counts"] = coreList

	// In runs mode each request carries one config, cycling through the
	// same cross-product the sweep mode asks for in bulk.
	type runCfg struct {
		Benchmark     string  `json:"benchmark"`
		Cores         int     `json:"cores"`
		Technique     string  `json:"technique"`
		WorkloadScale float64 `json:"workload_scale,omitempty"`
	}
	var runSet []runCfg
	for _, b := range strings.Split(*benches, ",") {
		for _, cc := range coreList {
			for _, t := range strings.Split(*techs, ",") {
				runSet = append(runSet, runCfg{
					Benchmark: strings.TrimSpace(b), Cores: cc,
					Technique: strings.TrimSpace(t), WorkloadScale: *scale,
				})
			}
		}
	}
	unique := len(runSet)

	// Health check before unleashing the fleet.
	if resp, err := client.Get(base + "/healthz"); err != nil {
		fmt.Fprintln(os.Stderr, "ptbload: server unreachable:", err)
		os.Exit(2)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	// post sends one request. A runs-mode answer records its digest under
	// slot, the index of its config in runSet, so only answers for the
	// same config are compared.
	post := func(path string, body any, slot int) outcome {
		buf, _ := json.Marshal(body)
		start := time.Now()
		var resp *http.Response
		retried := 0
		for {
			var err error
			resp, err = client.Post(base+path, "application/json", bytes.NewReader(buf))
			if err != nil {
				return outcome{err: err, retries: retried}
			}
			if resp.StatusCode != http.StatusTooManyRequests || retried >= *retries {
				break
			}
			// Backpressure: honor the server's Retry-After (with jitter)
			// and try again within the budget.
			sleep := retryAfter(resp)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			retried++
			time.Sleep(sleep)
		}
		defer resp.Body.Close()
		o := outcome{status: resp.StatusCode, latency: time.Since(start), retries: retried, digests: map[int]string{}}
		if resp.StatusCode != http.StatusOK {
			o.abandoned = resp.StatusCode == http.StatusTooManyRequests
			io.Copy(io.Discard, resp.Body)
			return o
		}
		if path == "/v1/sweeps" {
			var sr sweepResponse
			if o.err = json.NewDecoder(resp.Body).Decode(&sr); o.err != nil {
				return o
			}
			o.fresh, o.cached, o.coalesced, o.failed = sr.Fresh, sr.Cached, sr.Coalesced, sr.Failed
			for i, r := range sr.Results {
				o.digests[i] = r.Digest
			}
			return o
		}
		var rr runResponse
		if o.err = json.NewDecoder(resp.Body).Decode(&rr); o.err != nil {
			return o
		}
		switch {
		case rr.Error != "":
			o.failed = 1
		case rr.Cached:
			o.cached = 1
		case rr.Coalesced:
			o.coalesced = 1
		default:
			o.fresh = 1
		}
		o.digests[slot] = rr.Digest
		return o
	}

	fmt.Fprintf(os.Stderr, "ptbload: %d %s requests (%d unique configs), %d in flight, against %s\n",
		*n, *mode, unique, *c, base)

	outcomes := make([]outcome, *n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, *c)
	wallStart := time.Now()
	for i := 0; i < *n; i++ {
		i := i
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			switch *mode {
			case "runs":
				slot := i % len(runSet)
				outcomes[i] = post("/v1/runs", map[string]any{"config": runSet[slot]}, slot)
			default:
				body := sweepBody
				if *scale != 0 {
					// Sweep configs inherit the server's default scale; the
					// flag only applies to runs mode.
					fmt.Fprintln(os.Stderr, "ptbload: note: -scale is ignored in sweep mode")
				}
				outcomes[i] = post("/v1/sweeps", body, 0)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(wallStart)

	// Aggregate.
	var (
		ok, rejected, failedReqs int
		retried, abandoned       int
		fresh, cached, coalesced int
		failedCfgs               int
		latencies                []time.Duration
		digestByKey              = map[string]string{}
		digestConflict           bool
	)
	for _, o := range outcomes {
		retried += o.retries
		if o.abandoned {
			abandoned++
		}
		if o.err != nil {
			failedReqs++
			fmt.Fprintln(os.Stderr, "ptbload: request error:", o.err)
			continue
		}
		switch o.status {
		case http.StatusOK:
			ok++
			latencies = append(latencies, o.latency)
			fresh += o.fresh
			cached += o.cached
			coalesced += o.coalesced
			failedCfgs += o.failed
			for slot, d := range o.digests {
				key := fmt.Sprintf("%s/%d", *mode, slot)
				if prev, seen := digestByKey[key]; seen && prev != d {
					digestConflict = true
					fmt.Fprintf(os.Stderr, "ptbload: DIGEST CONFLICT at %s: %s vs %s\n", key, prev, d)
				} else {
					digestByKey[key] = d
				}
			}
		case http.StatusTooManyRequests:
			rejected++
		default:
			failedReqs++
			fmt.Fprintf(os.Stderr, "ptbload: unexpected status %d\n", o.status)
		}
	}

	answered := fresh + cached + coalesced + failedCfgs
	hitRate := 0.0
	if answered > 0 {
		hitRate = float64(cached) / float64(answered)
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) time.Duration {
		if len(latencies) == 0 {
			return 0
		}
		i := int(p * float64(len(latencies)-1))
		return latencies[i]
	}

	fmt.Printf("requests        %d ok, %d rejected (429), %d errors in %v\n", ok, rejected, failedReqs, wall.Round(time.Millisecond))
	fmt.Printf("backpressure    %d retried 429s (Retry-After honored), %d abandoned after %d retries\n",
		retried, abandoned, *retries)
	fmt.Printf("configs         %d answered: %d fresh, %d coalesced, %d cached, %d failed\n",
		answered, fresh, coalesced, cached, failedCfgs)
	fmt.Printf("unique configs  %d\n", unique)
	fmt.Printf("cache hit rate  %.4f\n", hitRate)
	fmt.Printf("latency         p50=%v p90=%v p99=%v max=%v\n",
		pct(0.50).Round(time.Millisecond), pct(0.90).Round(time.Millisecond),
		pct(0.99).Round(time.Millisecond), pct(1.0).Round(time.Millisecond))
	for _, key := range sortedKeys(digestByKey) {
		fmt.Printf("digest          %s %s\n", key, digestByKey[key])
	}

	exit := 0
	if digestConflict {
		fmt.Println("FAIL: the same request slot answered with different digests")
		exit = 1
	}
	if failedReqs > 0 || failedCfgs > 0 {
		fmt.Println("FAIL: request or configuration errors")
		exit = 1
	}
	if *assertSF && fresh != unique {
		fmt.Printf("FAIL: single-flight violated: %d fresh simulations for %d unique configs\n", fresh, unique)
		exit = 1
	}
	if *assertHit >= 0 && hitRate < *assertHit {
		fmt.Printf("FAIL: cache hit rate %.4f below required %.4f\n", hitRate, *assertHit)
		exit = 1
	}
	if exit == 0 {
		fmt.Println("PASS")
	}
	os.Exit(exit)
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
