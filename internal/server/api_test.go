package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"ldis/internal/mem"
	"ldis/internal/trace"
)

// startTestServer brings up a full server over HTTP and tears it down
// with the test.
func startTestServer(t *testing.T) (*Server, string, *http.Client) {
	t.Helper()
	s, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	client := &http.Client{}
	t.Cleanup(func() {
		client.CloseIdleConnections()
		s.Shutdown(context.Background())
	})
	return s, "http://" + s.Addr(), client
}

// TestTraceUploadAndReplay drives the tracesim path end to end over
// HTTP: upload a trace, run a distill replay over it, stream the
// result, and read the stored trace's metadata back.
func TestTraceUploadAndReplay(t *testing.T) {
	_, base, client := startTestServer(t)

	accs := make([]mem.Access, 256)
	for i := range accs {
		accs[i] = mem.Access{Addr: mem.Addr(0x4000 + (i%32)*64), Kind: mem.Load}
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, accs); err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(base+"/v1/traces", "application/octet-stream", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var up struct {
		ID      string `json:"id"`
		Records int    `json:"records"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || up.Records != len(accs) {
		t.Fatalf("upload: status %d records %d, want 201 with %d", resp.StatusCode, up.Records, len(accs))
	}

	info, err := client.Get(base + "/v1/traces/" + up.ID)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, info.Body)
	info.Body.Close()
	if info.StatusCode != http.StatusOK {
		t.Fatalf("trace info: status %d, want 200", info.StatusCode)
	}

	spec := fmt.Sprintf(`{"kind":"tracesim","trace":%q,"cache":"distill","accesses":256}`, up.ID)
	jr, err := client.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(jr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	jr.Body.Close()
	if jr.StatusCode != http.StatusAccepted {
		t.Fatalf("tracesim submit: status %d, want 202", jr.StatusCode)
	}

	rr, err := client.Get(base + "/v1/jobs/" + st.ID + "/result?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(rr.Body)
	rr.Body.Close()
	if got := rr.Trailer.Get("X-Ldisd-Status"); got != "done" {
		t.Fatalf("tracesim trailer %q (error %q), want done; body:\n%s",
			got, rr.Trailer.Get("X-Ldisd-Error"), body)
	}
	if !bytes.Contains(body, []byte("trace "+up.ID+" via distill")) {
		t.Errorf("result missing replay summary; body:\n%s", body)
	}

	mr, err := client.Get(base + "/v1/jobs/" + st.ID + "/manifest")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	if mr.StatusCode != http.StatusOK || !bytes.Contains(mbody, []byte(`"tool": "ldisd"`)) {
		t.Errorf("tracesim manifest: status %d body %s", mr.StatusCode, mbody)
	}
}

// TestRejectedSpecsAreStructured400s pins the admission door: hostile
// or malformed specs are refused with a structured error body, and
// semantic problems arrive as the complete list, not one at a time.
func TestRejectedSpecsAreStructured400s(t *testing.T) {
	_, base, client := startTestServer(t)
	cases := []struct {
		name, body string
		wantStatus int
		wantSubstr []string
	}{
		{"empty body", ``, 400, []string{"empty body"}},
		{"trailing data", `{"kind":"exp","experiments":["fig6"]} {"again":1}`, 400, []string{"trailing data"}},
		{"unknown field", `{"kind":"exp","experiments":["fig6"],"bogus":1}`, 400, []string{"bogus"}},
		{"not json", `##not json##`, 400, []string{"spec"}},
		{"problem list", `{"kind":"exp","experiments":["nope"],"accesses":-4,"retries":99}`, 400,
			[]string{"unknown experiment", "accesses", "retries"}},
		{"exp+trace mixed", `{"kind":"exp","experiments":["fig6"],"trace":"t0123456789abcdef"}`, 400,
			[]string{"only valid with kind tracesim"}},
		{"traversal trace id", `{"kind":"tracesim","trace":"../../etc/passwd"}`, 400,
			[]string{"malformed trace id"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := client.Post(base+"/v1/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, tc.wantStatus, body)
			}
			var e struct {
				Error     string `json:"error"`
				RequestID string `json:"request_id"`
			}
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatalf("error body not JSON: %v (%s)", err, body)
			}
			if e.Error == "" || e.RequestID == "" {
				t.Errorf("unstructured error body: %s", body)
			}
			for _, want := range tc.wantSubstr {
				if !strings.Contains(e.Error, want) {
					t.Errorf("error %q missing %q", e.Error, want)
				}
			}
		})
	}
}

// TestRequestGuards pins the pre-routing limits: oversized paths,
// over-deep paths, oversized spec bodies, and malformed ids are all
// bounced with structured errors before any work happens.
func TestRequestGuards(t *testing.T) {
	_, base, client := startTestServer(t)

	get := func(path string) *http.Response {
		t.Helper()
		resp, err := client.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	if resp := get("/v1/jobs/" + strings.Repeat("a", 300)); resp.StatusCode != http.StatusRequestURITooLong {
		t.Errorf("long path: status %d, want 414", resp.StatusCode)
	}
	if resp := get("/v1/" + strings.Repeat("d/", 8) + "x"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("deep path: status %d, want 400", resp.StatusCode)
	}
	if resp := get("/v1/jobs/not-a-job-id"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed job id: status %d, want 400", resp.StatusCode)
	}
	if resp := get("/v1/jobs/j0123456789abcdef"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
	if resp := get("/v1/traces/t0123456789abcdef"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace: status %d, want 404", resp.StatusCode)
	}

	// A spec body over MaxSpecBytes must be cut off by the body limit,
	// not buffered.
	huge := `{"kind":"exp","experiments":["fig6"],"benchmarks":["` + strings.Repeat("a", 2<<20) + `"]}`
	resp, err := client.Post(base+"/v1/jobs", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized spec: status %d, want 413", resp.StatusCode)
	}
}

// TestRequestIDThreading pins correlation: a well-formed inbound
// X-Request-Id is honoured end to end (response header, error body,
// job status, manifest params), and a hostile one is replaced.
func TestRequestIDThreading(t *testing.T) {
	_, base, client := startTestServer(t)

	req, _ := http.NewRequest("GET", base+"/v1/jobs/zzz", nil)
	req.Header.Set("X-Request-Id", "my-trace-7")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "my-trace-7" {
		t.Errorf("response X-Request-Id %q, want my-trace-7", got)
	}
	if !bytes.Contains(body, []byte(`"request_id": "my-trace-7"`)) {
		t.Errorf("error body missing request id: %s", body)
	}

	req, _ = http.NewRequest("GET", base+"/v1/healthz", nil)
	req.Header.Set("X-Request-Id", "bad id {with} spaces")
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got == "" || strings.Contains(got, "bad") {
		t.Errorf("hostile inbound request id not replaced: %q", got)
	}

	// The request id rides the job into its manifest.
	spec := `{"kind":"exp","experiments":["fig6"],"benchmarks":["mcf"],"accesses":20000}`
	req, _ = http.NewRequest("POST", base+"/v1/jobs", strings.NewReader(spec))
	req.Header.Set("X-Request-Id", "corr-42")
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.RequestID != "corr-42" {
		t.Fatalf("job status request_id %q, want corr-42", st.RequestID)
	}
	for i := 0; ; i++ {
		resp, err := client.Get(base + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if st.State == StateDone {
			break
		}
		if st.State.terminal() || i > 1000 {
			t.Fatalf("job state %s (err %q)", st.State, st.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	mresp, err := client.Get(base + "/v1/jobs/" + st.ID + "/manifest")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !bytes.Contains(mbody, []byte(`"request_id": "corr-42"`)) {
		t.Errorf("manifest missing request id param: %s", mbody)
	}
}

// TestSubmitIsIdempotent pins that resubmitting an identical spec
// returns the existing job with 200 rather than double-running it.
func TestSubmitIsIdempotent(t *testing.T) {
	s, base, client := startTestServer(t)
	spec := `{"kind":"exp","experiments":["fig6"],"benchmarks":["health"],"accesses":20000}`
	first, err := client.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var st1 JobStatus
	json.NewDecoder(first.Body).Decode(&st1)
	first.Body.Close()
	if first.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d, want 202", first.StatusCode)
	}
	second, err := client.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var st2 JobStatus
	json.NewDecoder(second.Body).Decode(&st2)
	second.Body.Close()
	if second.StatusCode != http.StatusOK || st2.ID != st1.ID {
		t.Fatalf("resubmit: status %d id %s, want 200 with id %s", second.StatusCode, st2.ID, st1.ID)
	}
	j, ok := s.store.get(st1.ID)
	if !ok {
		t.Fatal("job missing from store")
	}
	waitState(t, j, StateDone)
}

// TestHealthAndExperiments pins the two discovery endpoints.
func TestHealthAndExperiments(t *testing.T) {
	_, base, client := startTestServer(t)
	var h struct {
		Status     string `json:"status"`
		QueueDepth int    `json:"queue_depth"`
	}
	resp, err := client.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if h.Status != "ok" || h.QueueDepth != 2 {
		t.Errorf("health %+v, want ok with queue_depth 2", h)
	}

	var exps []struct {
		ID string `json:"id"`
	}
	resp, err = client.Get(base + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&exps)
	resp.Body.Close()
	found := false
	for _, e := range exps {
		if e.ID == "fig6" {
			found = true
		}
	}
	if !found {
		t.Errorf("experiment listing missing fig6: %+v", exps)
	}
}

// TestV1OpenAPIDocument: /v1/openapi.json serves a document whose path
// set matches the routing table exactly — the spec cannot drift from
// the mux.
func TestV1OpenAPIDocument(t *testing.T) {
	s, base, client := startTestServer(t)
	resp, err := client.Get(base + "/v1/openapi.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		OpenAPI string                    `json:"openapi"`
		Info    struct{ Version string }  `json:"info"`
		Paths   map[string]map[string]any `json:"paths"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.OpenAPI == "" {
		t.Error("missing openapi version field")
	}
	want := map[string]bool{}
	for _, rt := range s.routes() {
		want[rt.path] = true
	}
	for p := range want {
		if _, ok := doc.Paths[p]; !ok {
			t.Errorf("route %s missing from openapi document", p)
		}
	}
	for p := range doc.Paths {
		if !want[p] {
			t.Errorf("openapi documents %s, which the mux does not serve", p)
		}
	}
	if _, ok := doc.Paths["/v1/jobs"]["post"]; !ok {
		t.Error("POST /v1/jobs not documented")
	}
}

// TestLegacyPathPolicy pins the unversioned-path contract: content is
// served only under /v1/, and every other path — the unprefixed
// spellings of v1 resources included — is the structured JSON 404.
func TestLegacyPathPolicy(t *testing.T) {
	_, base, _ := startTestServer(t)
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	t.Cleanup(client.CloseIdleConnections)

	cases := []struct{ method, path string }{
		{"GET", "/healthz"},
		{"GET", "/jobs/j123/result?wait=1"},
		{"POST", "/jobs"},
		{"GET", "/nope"},
		{"GET", "/"},
		{"POST", "/v2/jobs"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, base+tc.path, strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var e apiError
		decErr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", tc.method, tc.path, resp.StatusCode)
		}
		if decErr != nil || !strings.HasPrefix(e.Error, "unknown path ") || e.RequestID == "" {
			t.Errorf("%s %s: body %+v (%v), want a structured unknown-path error", tc.method, tc.path, e, decErr)
		}
	}
}
