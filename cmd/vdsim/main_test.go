package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run this binary as vdsim itself: a first argument
// of "vdsim-main" runs main on the arguments after it.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "vdsim-main" {
		os.Args = append([]string{"vdsim"}, os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs vdsim's main in a child process and returns its exit status,
// standard output and standard error.
func runMain(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"vdsim-main"}, args...)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("running vdsim: %v", err)
	}
	return cmd.ProcessState.ExitCode(), stdout.String(), stderr.String()
}

// TestVdsimMalformedSpecFailsBeforeBoot runs vdsim with each spec flag
// malformed: it exits with the flag package's status 2 and usage, and
// prints nothing, so no scenario booted.
func TestVdsimMalformedSpecFailsBeforeBoot(t *testing.T) {
	for _, args := range [][]string{
		{"-switch-to", "sideways"},
		{"-chaos", "drop=x"},
		{"-slo", "p99<"},
		{"-adapt", "nosuchpolicy=1"},
		{"-detector", "bogus"},
	} {
		t.Run(args[0][1:], func(t *testing.T) {
			code, stdout, stderr := runMain(t, append([]string{"-requests", "5"}, args...)...)
			if code != 2 || stdout != "" || !strings.Contains(stderr, "invalid value") || !strings.Contains(stderr, "Usage of") {
				t.Fatalf("exit %d, want 2 with the flag's error and usage and no output; stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
			}
		})
	}
	// The same specs well formed boot the scenario, which says so.
	code, stdout, stderr := runMain(t, "-requests", "5", "-switch-to", "warm-passive", "-chaos", "drop=0.01:7",
		"-slo", "p99<10ms:25ms", "-adapt", "rate=600:200", "-detector", "phi")
	if code != 0 || !strings.Contains(stdout, "scenario:") {
		t.Fatalf("well-formed specs: exit %d; stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}
