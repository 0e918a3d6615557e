package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run this binary as vdbench itself: a first argument
// of "vdbench-main" runs main on the arguments after it.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "vdbench-main" {
		os.Args = append([]string{"vdbench"}, os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestMalformedSLOFailsBeforeAnyExperiment: a malformed -slo exits with
// the flag package's status 2 and the usage, and no experiment runs, also
// when the selected experiment does not read the spec.
func TestMalformedSLOFailsBeforeAnyExperiment(t *testing.T) {
	for _, exp := range []string{"slo", "fig3"} {
		cmd := exec.Command(os.Args[0], "vdbench-main", "-exp", exp, "-slo", "p99<")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			t.Fatalf("running vdbench: %v", err)
		}
		code := cmd.ProcessState.ExitCode()
		if code != 2 || !strings.Contains(stderr.String(), "invalid value") || !strings.Contains(stderr.String(), "Usage of") {
			t.Fatalf("-exp %s: exit %d, want 2 with the flag's error and usage; stderr:\n%s", exp, code, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Fatalf("-exp %s: an experiment ran before the spec was rejected:\n%s", exp, stdout.String())
		}
	}
}
