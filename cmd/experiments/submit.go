package main

// The -submit mode: instead of executing locally, enqueue the selected
// targets on a bofleetd coordinator and tail them. Every target becomes
// one sweep (same submitter, so the fair-share queue grants them in
// submission order against an idle fleet) and each sweep's output — which
// the coordinator renders through the exact dispatch main() uses — is
// printed to stdout in the canonical target order, so piping -submit and
// a local run to diff is the intended verification.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"bopsim/internal/fleet"
)

// submitter resolves the fair-share identity for -submit: the -as flag,
// else $USER, else the service's "anon" default.
func submitter(as string) string {
	if as != "" {
		return as
	}
	return os.Getenv("USER")
}

// splitList splits a ';'-separated flag value, trimming blanks.
func splitList(list string) []string {
	var out []string
	for _, s := range strings.Split(list, ";") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

// submitAndTail enqueues one sweep per target, waits for each in order,
// and prints the outputs. Returns the process exit code.
func submitAndTail(url string, targets []string, req fleet.SweepRequest) int {
	url = strings.TrimSuffix(url, "/")
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	client := &http.Client{Timeout: 30 * time.Second}
	ids := make([]int, 0, len(targets))
	for _, target := range targets {
		r := req
		r.Target = target
		id, err := submitSweep(client, url, r)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: submitting %s: %v\n", target, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "submitted %s as sweep %d\n", target, id)
		ids = append(ids, id)
	}
	for i, id := range ids {
		st, err := tailSweep(client, url, id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: sweep %d (%s): %v\n", id, targets[i], err)
			return 1
		}
		if st.State == fleet.StateFailed {
			fmt.Fprintf(os.Stderr, "experiments: sweep %d (%s) failed: %s\n", id, targets[i], st.Error)
			return 1
		}
		fmt.Print(st.Output)
	}
	return 0
}

func submitSweep(client *http.Client, url string, req fleet.SweepRequest) (int, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	resp, err := client.Post(url+"/v1/sweeps", "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		var eb struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&eb)
		if eb.Error == "" {
			eb.Error = resp.Status
		}
		return 0, fmt.Errorf("%s", eb.Error)
	}
	var out struct {
		ID int `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, err
	}
	return out.ID, nil
}

// tailSweep polls one sweep until it completes, echoing progress to
// stderr. Coordinator hiccups (connection refused during a restart, a
// timeout) are retried indefinitely: the sweep is journaled, so it will
// finish once the coordinator is back.
func tailSweep(client *http.Client, url string, id int) (fleet.SweepStatus, error) {
	var last string
	for {
		st, err := getSweep(client, url, id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "\rcoordinator unreachable (%v), retrying...", err)
			last = ""
			time.Sleep(2 * time.Second)
			continue
		}
		switch st.State {
		case fleet.StateDone, fleet.StateFailed:
			if last != "" {
				fmt.Fprint(os.Stderr, "\r"+strings.Repeat(" ", len(last))+"\r")
			}
			return st, nil
		case fleet.StatePending:
			line := fmt.Sprintf("sweep %d queued (position %d)", id, st.Position)
			fmt.Fprint(os.Stderr, "\r"+pad(line, len(last)))
			last = line
		case fleet.StateRunning:
			line := fmt.Sprintf("sweep %d running", id)
			if p := st.Progress; p != nil && p.Total > 0 {
				line = fmt.Sprintf("sweep %d running: %d/%d sims", id, p.Done, p.Total)
			}
			fmt.Fprint(os.Stderr, "\r"+pad(line, len(last)))
			last = line
		}
		time.Sleep(500 * time.Millisecond)
	}
}

// pad right-pads line to width so a shorter rewrite wipes its
// predecessor.
func pad(line string, width int) string {
	if len(line) < width {
		return line + strings.Repeat(" ", width-len(line))
	}
	return line
}

func getSweep(client *http.Client, url string, id int) (fleet.SweepStatus, error) {
	resp, err := client.Get(fmt.Sprintf("%s/v1/sweeps/%d", url, id))
	if err != nil {
		return fleet.SweepStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fleet.SweepStatus{}, fmt.Errorf("coordinator answered %s", resp.Status)
	}
	var st fleet.SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return fleet.SweepStatus{}, err
	}
	return st, nil
}
