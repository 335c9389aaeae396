package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"memnet/internal/experiments"
)

func TestSelectExperiments(t *testing.T) {
	list := experimentList(experiments.NewRunner(experiments.QuickOptions()))
	all, err := selectExperiments("all", list)
	if err != nil || len(all) != len(list) {
		t.Fatalf("all: %d of %d selected, err %v", len(all), len(list), err)
	}
	got, err := selectExperiments("table2, fig4,chaos", list)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || !got["table2"] || !got["fig4"] || !got["chaos"] {
		t.Fatalf("selected %v", got)
	}
	for _, spec := range []string{"nosuch", "fig4,fgi10", "fig4,", "", "ALL"} {
		_, err := selectExperiments(spec, list)
		if err == nil {
			t.Fatalf("-exp %q accepted", spec)
		}
		for _, e := range list {
			if !strings.Contains(err.Error(), e.id) {
				t.Fatalf("-exp %q: error %q does not list %s", spec, err, e.id)
			}
		}
	}
}

// TestUnknownExpExits runs the command with a misspelt id and requires
// a non-zero exit naming the id, before any simulation and with nothing
// on stdout.
func TestUnknownExpExits(t *testing.T) {
	if os.Getenv("MNEXP_RUN_MAIN") == "1" {
		os.Args = []string{"mnexp", "-quick", "-exp", "fig4,fgi10"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownExpExits$")
	cmd.Env = append(os.Environ(), "MNEXP_RUN_MAIN=1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() == 0 {
		t.Fatalf("want a non-zero exit, got %v (stderr %q)", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), `"fgi10"`) || !strings.Contains(stderr.String(), "fig10") {
		t.Fatalf("stderr %q does not name the bad id and the valid ids", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("stdout %q, want nothing", stdout.String())
	}
}
