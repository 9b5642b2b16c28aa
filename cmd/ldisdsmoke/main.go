// Command ldisdsmoke is the end-to-end smoke driver for ldisd, run by
// `make ldisd-smoke` and the ldisd-smoke CI job. It exercises the full
// service lifecycle against a real ldisd process:
//
//  1. start ldisd on an ephemeral port with a temp data directory,
//  2. wait for readiness via -addr-file and /v1/healthz,
//  3. submit an experiment job and long-poll its streamed result,
//  4. verify the result trailer reports a clean terminal state,
//  5. verify the per-job manifest round-trips with tool "ldisd",
//  6. SIGTERM the server and require a clean graceful-drain exit.
//
// Any deviation — missing trailer, failed job, unclean exit — is a
// non-zero exit, which fails the make target.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

func main() {
	bin := flag.String("bin", "bin/ldisd", "path to the ldisd binary under test")
	flag.Parse()
	if err := run(*bin); err != nil {
		fmt.Fprintln(os.Stderr, "ldisd-smoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("ldisd-smoke: OK")
}

func run(bin string) error {
	work, err := os.MkdirTemp("", "ldisd-smoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	addrFile := filepath.Join(work, "addr")

	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-data", filepath.Join(work, "data"),
		"-drain-timeout", "60s",
	)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", bin, err)
	}
	// The server is reaped below via SIGTERM + Wait; this is the
	// belt-and-braces cleanup for early failure returns.
	defer cmd.Process.Kill()

	addr, err := waitForFile(addrFile, 30*time.Second)
	if err != nil {
		return err
	}
	base := "http://" + strings.TrimSpace(addr)

	if err := checkHealth(base); err != nil {
		return err
	}
	if err := checkV1Surface(base); err != nil {
		return err
	}
	jobID, err := submitJob(base)
	if err != nil {
		return err
	}
	if err := streamResult(base, jobID); err != nil {
		return err
	}
	if err := checkManifest(base, jobID); err != nil {
		return err
	}

	// Graceful drain: one SIGTERM must exit 0 with no jobs in flight.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signalling server: %w", err)
	}
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("server exited uncleanly after SIGTERM: %w", err)
	}
	return nil
}

// waitForFile polls for the -addr-file the server writes once bound.
func waitForFile(path string, timeout time.Duration) (string, error) {
	deadline := time.After(timeout)
	for {
		if data, err := os.ReadFile(path); err == nil && len(data) > 0 {
			return string(data), nil
		}
		select {
		case <-deadline:
			return "", fmt.Errorf("server did not write %s within %v", path, timeout)
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// checkHealth requires an "ok" health report.
func checkHealth(base string) error {
	var h struct {
		Status string `json:"status"`
	}
	if err := getJSON(base+"/v1/healthz", &h); err != nil {
		return err
	}
	if h.Status != "ok" {
		return fmt.Errorf("health status %q, want ok", h.Status)
	}
	return nil
}

// checkV1Surface requires the machine-readable route table and that
// content is served only under /v1/.
func checkV1Surface(base string) error {
	var spec struct {
		OpenAPI string         `json:"openapi"`
		Paths   map[string]any `json:"paths"`
	}
	if err := getJSON(base+"/v1/openapi.json", &spec); err != nil {
		return err
	}
	if spec.OpenAPI == "" || len(spec.Paths) == 0 {
		return fmt.Errorf("openapi document empty: %+v", spec)
	}
	// Unversioned spellings are unknown paths: a structured 404.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		return fmt.Errorf("GET /healthz: status %d, want 404", resp.StatusCode)
	}
	return nil
}

// submitJob posts a small experiment job and returns its id.
func submitJob(base string) (string, error) {
	spec := `{"kind":"exp","experiments":["fig6"],"benchmarks":["mcf","health"],"accesses":60000}`
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit: status %d, body %s", resp.StatusCode, body)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return "", fmt.Errorf("submit response: %w (body %s)", err, body)
	}
	if st.ID == "" {
		return "", fmt.Errorf("submit response missing job id: %s", body)
	}
	fmt.Fprintf(os.Stderr, "ldisd-smoke: submitted job %s\n", st.ID)
	return st.ID, nil
}

// streamResult long-polls the result endpoint and verifies the
// no-partial-response contract: the body ends with the status line and
// the X-Ldisd-Status trailer says "done" with an empty error trailer.
func streamResult(base, jobID string) error {
	resp, err := http.Get(base + "/v1/jobs/" + jobID + "/result?wait=1")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("reading result stream: %w", err)
	}
	// Trailers are populated only after the body is fully read.
	if got := resp.Trailer.Get("X-Ldisd-Status"); got != "done" {
		return fmt.Errorf("result trailer X-Ldisd-Status = %q (error %q), want done; body:\n%s",
			got, resp.Trailer.Get("X-Ldisd-Error"), body)
	}
	if got := resp.Trailer.Get("X-Ldisd-Error"); got != "" {
		return fmt.Errorf("result trailer X-Ldisd-Error = %q, want empty", got)
	}
	if !bytes.Contains(body, []byte("# ldisd: job "+jobID+" done")) {
		return fmt.Errorf("result stream missing terminal status line; body:\n%s", body)
	}
	if !bytes.Contains(body, []byte("mcf")) {
		return fmt.Errorf("result stream missing benchmark rows; body:\n%s", body)
	}
	fmt.Fprintf(os.Stderr, "ldisd-smoke: result streamed (%d bytes, trailer done)\n", len(body))
	return nil
}

// checkManifest fetches the per-job manifest and pins its identity.
func checkManifest(base, jobID string) error {
	var m struct {
		Tool        string            `json:"tool"`
		Experiments []string          `json:"experiments"`
		Params      map[string]string `json:"params"`
	}
	if err := getJSON(base+"/v1/jobs/"+jobID+"/manifest", &m); err != nil {
		return err
	}
	if m.Tool != "ldisd" {
		return fmt.Errorf("manifest tool %q, want ldisd", m.Tool)
	}
	if len(m.Experiments) != 1 || m.Experiments[0] != "fig6" {
		return fmt.Errorf("manifest experiments %v, want [fig6]", m.Experiments)
	}
	if m.Params["job_id"] != jobID {
		return fmt.Errorf("manifest job_id %q, want %s", m.Params["job_id"], jobID)
	}
	fmt.Fprintln(os.Stderr, "ldisd-smoke: manifest verified")
	return nil
}

// getJSON fetches url and decodes a 200 JSON body into v.
func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d, body %s", url, resp.StatusCode, body)
	}
	return json.Unmarshal(body, v)
}
