package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/resultcache"
	"repro/internal/service"
	"repro/internal/sweep"
)

// svc is an in-process texsimd: service.New behind its own Handler on a
// loopback listener, driven over real HTTP.
type svc struct {
	srv   *service.Server
	cache *resultcache.Cache
	hs    *http.Server
	base  string
	hc    *http.Client
	done  chan struct{} // closed when Serve returns
}

// serviceWorkers is the server's worker-pool size.
const serviceWorkers = 2

// startService builds the server and starts serving. The result cache is
// sized so that no entry a client may repeat is evicted during a run.
func startService(ctx context.Context) (*svc, error) {
	rc, err := resultcache.New(resultcache.Config{MaxEntries: 4096})
	if err != nil {
		return nil, err
	}
	srv, err := service.New(ctx, service.Config{Workers: serviceWorkers, Cache: rc})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &svc{
		srv:   srv,
		cache: rc,
		hs:    &http.Server{Handler: srv.Handler()},
		base:  "http://" + ln.Addr().String(),
		hc:    &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serviceClients}},
		done:  make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return s, nil
}

// close stops the listener, drains the server and waits for both.
func (s *svc) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a timed-out shutdown still stops Serve
	<-s.done
	if s.srv.Drain(ctx) != nil {
		s.srv.Close()
	}
	s.hc.CloseIdleConnections()
}

// jobOutcome is one job as a client saw it.
type jobOutcome struct {
	spec      sweep.Spec
	repeat    bool // the client meant it as a result-cache hit
	fromCache bool
	latency   time.Duration // submit through result fetched
	submit    time.Duration // POST round trip
	result    time.Duration // result GET round trip
	body      []byte
	err       error // failed or refused (429/503) jobs count as failed ops
}

type jobView struct {
	ID        string `json:"id"`
	Status    string `json:"status"`
	FromCache bool   `json:"from_cache"`
	Error     string `json:"error"`
}

// job submits one sweep, waits on its progress stream until the job is
// terminal, reads its status and fetches its result.
func (s *svc) job(ctx context.Context, spec sweep.Spec, repeat bool, rec *recorder, op int) (out jobOutcome) {
	out = jobOutcome{spec: spec, repeat: repeat}
	root := rec.start("service.job", 0, op)
	defer rec.end(root)
	reqBody, err := json.Marshal(service.Request{Type: "sweep", Sweep: &spec})
	if err != nil {
		out.err = err
		return out
	}
	t0 := time.Now()
	var data []byte
	out.submit = rec.timed("service.submit", root, op, func() {
		data, err = s.fetch(ctx, http.MethodPost, "/api/v1/jobs", reqBody, http.StatusAccepted)
	})
	var v jobView
	if err == nil {
		err = json.Unmarshal(data, &v)
	}
	if err == nil {
		// The server closes the event stream right after the job's
		// terminal event; the status is then read from the job record.
		rec.timed("service.wait", root, op, func() {
			_, err = s.fetch(ctx, http.MethodGet, "/api/v1/jobs/"+v.ID+"/events", nil, http.StatusOK)
		})
	}
	if err == nil {
		data, err = s.fetch(ctx, http.MethodGet, "/api/v1/jobs/"+v.ID, nil, http.StatusOK)
	}
	if err == nil {
		err = json.Unmarshal(data, &v)
	}
	if err == nil && v.Status != string(service.StatusDone) {
		err = fmt.Errorf("job %s ended %s: %s", v.ID, v.Status, v.Error)
	}
	if err == nil {
		out.fromCache = v.FromCache
		out.result = rec.timed("service.result", root, op, func() {
			out.body, err = s.fetch(ctx, http.MethodGet, "/api/v1/jobs/"+v.ID+"/result", nil, http.StatusOK)
		})
	}
	out.latency = time.Since(t0)
	if err != nil {
		out.err = fmt.Errorf("%s: %w", specLabel(spec), err)
	}
	return out
}

// fetch sends one request and returns the response body, or an error when
// the status is not the wanted one.
func (s *svc) fetch(ctx context.Context, method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != want {
		err = fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, err
}

// scrape reads /metrics and returns every sample value by its full series
// name (metric name plus label set, as rendered).
func (s *svc) scrape(ctx context.Context) (map[string]float64, error) {
	data, err := s.fetch(ctx, http.MethodGet, "/metrics", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sumSeries adds every series of one metric family member (e.g. all label
// sets of texsimd_job_duration_seconds_sum).
func sumSeries(m map[string]float64, name string) float64 {
	total := 0.0
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// histMeanMS returns a histogram's mean observation in milliseconds across
// all its label sets.
func histMeanMS(m map[string]float64, base string) (float64, error) {
	n := sumSeries(m, base+"_count")
	if n == 0 {
		return 0, errors.New(base + ": no observations")
	}
	return 1000 * sumSeries(m, base+"_sum") / n, nil
}
