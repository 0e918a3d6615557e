package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"versadep/internal/gcs"
	"versadep/internal/obsplane"
	"versadep/internal/workload"
)

// TestMain lets a test run this binary as vdnode itself: a first argument
// of "vdnode-main" runs main on the arguments after it.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "vdnode-main" {
		os.Args = append([]string{"vdnode"}, os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// parse reads args as vdnode's command line without exiting on an error.
func parse(args ...string) (*config, error) {
	fs := flag.NewFlagSet("vdnode", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseFlags(fs, args)
}

// replicaArgs is the least command line a replica role accepts.
var replicaArgs = []string{"-name", "ra", "-bind", "127.0.0.1:0"}

func TestDetector(t *testing.T) {
	c, err := parse(replicaArgs...)
	if err != nil || !reflect.DeepEqual(c.gcs, gcs.DefaultConfig()) {
		t.Fatalf("unset flags: got %+v, %v; want the group defaults", c, err)
	}
	c, err = parse(append(replicaArgs, "-detector", "phi:12", "-suspect-after", "3s")...)
	if err != nil {
		t.Fatalf("phi:12: %v", err)
	}
	if c.gcs.PhiThreshold != 12 || c.gcs.SuspectAfter != 3*time.Second {
		t.Fatalf("phi:12 + 3s: got phi=%v suspect=%v", c.gcs.PhiThreshold, c.gcs.SuspectAfter)
	}
	c, err = parse(append(replicaArgs, "-suspect-after", "2s")...)
	if err != nil || c.gcs.SuspectAfter != 2*time.Second || c.gcs.PhiThreshold != gcs.DefaultConfig().PhiThreshold {
		t.Fatalf("suspect-after only: got %+v, %v", c, err)
	}
	for _, bad := range []string{"bogus", "phi:x", "phi:"} {
		if _, err := parse(append(replicaArgs, "-detector", bad)...); err == nil {
			t.Fatalf("-detector %q accepted a malformed spec", bad)
		}
	}
}

func TestShard(t *testing.T) {
	c, err := parse(append(replicaArgs, "-shard", "2/4")...)
	if err != nil || c.shardID != 2 || c.shardN != 4 || c.gcs.GroupID != 2 {
		t.Fatalf("-shard 2/4: got %+v, %v", c, err)
	}
	if c, err := parse(replicaArgs...); err != nil || c.shardN != 0 || c.gcs.GroupID != 0 {
		t.Fatalf("unset flag: got %+v, %v", c, err)
	}
	for _, bad := range []string{"2", "x/4", "2/x", "2/0", "4/4", "-1/4", "2/-3"} {
		if _, _, err := parseShard(bad); err == nil {
			t.Fatalf("parseShard(%q) accepted a malformed spec", bad)
		}
	}
}

func TestShardMembers(t *testing.T) {
	groups, err := parseShardMembers("0:ra,rb,rc;1:sa,sb,sc")
	if err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if len(groups) != 2 || groups[0].ID != 0 || groups[1].ID != 1 {
		t.Fatalf("groups = %+v", groups)
	}
	if len(groups[0].Members) != 3 || groups[0].Members[0] != "ra" {
		t.Fatalf("shard 0 members = %v", groups[0].Members)
	}
	if c, err := parse("-role", "client", "-name", "c1", "-bind", "127.0.0.1:0", "-members", "ra"); err != nil || c.shardGroups != nil {
		t.Fatalf("unset flag: got %+v, %v", c, err)
	}
	for _, bad := range []string{"0", "x:ra", "-1:ra", "0:", "0:ra;0:rb", ";"} {
		if _, err := parseShardMembers(bad); err == nil {
			t.Fatalf("parseShardMembers(%q) accepted a malformed spec", bad)
		}
	}
}

// TestVdnodeMalformedSpecFailsBeforeListen runs vdnode with each spec flag
// malformed and -bind on a port this test holds. A spec parsed after the
// bind would fail on the busy port with status 1; every case exits with
// the flag package's status 2 and usage instead.
func TestVdnodeMalformedSpecFailsBeforeListen(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	replica := []string{"-role", "replica", "-name", "ra", "-bind", held.Addr().String()}
	client := []string{"-role", "client", "-name", "c1", "-bind", held.Addr().String(), "-members", "ra"}
	aggregator := []string{"-role", "aggregator", "-bind", held.Addr().String(), "-scrape", "ra=http://127.0.0.1:1"}
	for _, c := range []struct {
		name string
		args []string
	}{
		{"slo", append(replica, "-slo", "p99<")},
		{"policy", append(replica, "-policy", "nosuchpolicy=1")},
		{"chaos", append(replica, "-chaos", "drop=x")},
		{"detector", append(replica, "-detector", "bogus")},
		{"shard", append(replica, "-shard", "4/4")},
		{"shard-members", append(client, "-shard-members", "0:")},
		{"peers", append(client, "-peers", "ra")},
		{"scrape", append(aggregator, "-scrape", "ra")},
		{"aggregator slo", append(aggregator, "-slo", "avail>0.9")},
	} {
		t.Run(c.name, func(t *testing.T) {
			code, stderr := runMain(t, c.args...)
			if code != 2 || !strings.Contains(stderr, "invalid value") || !strings.Contains(stderr, "Usage of") {
				t.Fatalf("exit %d, want 2 with the flag's error and usage; stderr:\n%s", code, stderr)
			}
		})
	}
	// The probe works: well-formed specs reach the bind and fail on it.
	for _, args := range [][]string{
		append(replica, "-slo", "p99<50ms:1s", "-detector", "phi", "-chaos", "drop=0.01:7", "-shard", "0/2"),
		append(aggregator, "-slo", "avail>0.9:1s"),
	} {
		if code, stderr := runMain(t, args...); code != 1 || !strings.Contains(stderr, "address already in use") {
			t.Fatalf("vdnode %v: exit %d, want 1 on the busy port; stderr:\n%s", args, code, stderr)
		}
	}
}

// runMain runs vdnode's main in a child process and returns its exit
// status and standard error.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"vdnode-main"}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("running vdnode: %v", err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

// startRole starts the role args describe, printing to out, stopped when
// the test ends.
func startRole(t *testing.T, out io.Writer, args ...string) *role {
	t.Helper()
	c, err := parse(args...)
	if err != nil {
		t.Fatalf("vdnode %v: %v", args, err)
	}
	c.out = out
	r, err := start(c)
	if err != nil {
		t.Fatalf("vdnode %v: %v", args, err)
	}
	t.Cleanup(r.stop)
	return r
}

// logBuffer is the roles' shared output: they print from many goroutines.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// count returns how many lines of the log begin with prefix.
func (b *logBuffer) count(prefix string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, line := range strings.Split(b.buf.String(), "\n") {
		if strings.HasPrefix(line, prefix) {
			n++
		}
	}
	return n
}

// waitFor polls cond until it holds, failing the test after timeout.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	deadline := time.After(timeout)
	for !cond() {
		select {
		case <-tick.C:
		case <-deadline:
			t.Fatalf("no %s within %v", what, timeout)
		}
	}
}

// get fetches path from a role's introspection endpoint.
func get(t *testing.T, r *role, path string) []byte {
	t.Helper()
	resp, err := http.Get("http://" + r.intro + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s, %v", path, resp.Status, err)
	}
	return body
}

// sample returns the value of the unlabelled sample name in a /metrics
// exposition, and whether it is there.
func sample(exposition []byte, name string) (float64, bool) {
	sc := bufio.NewScanner(bytes.NewReader(exposition))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 2 && f[0] == name {
			v, err := strconv.ParseFloat(f[1], 64)
			return v, err == nil
		}
	}
	return 0, false
}

// TestVdnodeRolesOverLoopback is the live cluster in one process, over
// loopback TCP on ports the system picks: three warm-passive replicas and
// a client, a crash of the primary mid-run (stopped, without a leave), the
// client completing every request, the new primary's /metrics and /slo,
// and an aggregator scraping the two survivors.
func TestVdnodeRolesOverLoopback(t *testing.T) {
	const requests = 400
	log := &logBuffer{}
	t.Cleanup(func() {
		if t.Failed() {
			log.mu.Lock()
			t.Logf("the roles' output:\n%s", log.buf.String())
			log.mu.Unlock()
		}
	})
	var peers []string
	var replicas []*role
	boot := func(name string, extra ...string) {
		t.Helper()
		r := startRole(t, log, append([]string{"-role", "replica", "-name", name, "-bind", "127.0.0.1:0",
			"-style", "warm-passive", "-peers", strings.Join(peers, ","), "-introspect", "127.0.0.1:0",
			"-slo", "p99<250ms,avail>0.9:2s", "-scrape-every", "20ms"}, extra...)...)
		peers = append(peers, name+"="+r.addr)
		replicas = append(replicas, r)
		// Joins are staggered: each waits until the whole group has it.
		waitFor(t, 10*time.Second, name+" joined and synced", func() bool {
			for _, r := range replicas {
				st := r.node.Engine().StatsSnapshot()
				if st.Members != len(replicas) || !st.Synced {
					return false
				}
			}
			return true
		})
	}
	boot("ra")
	boot("rb", "-seeds", "ra")
	boot("rc", "-seeds", "ra", "-policy", "avail=0.995:5")
	ra, rb, rc := replicas[0], replicas[1], replicas[2]

	client := startRole(t, log, "-role", "client", "-name", "c1", "-bind", "127.0.0.1:0",
		"-members", "ra,rb,rc", "-peers", strings.Join(peers, ","), "-requests", strconv.Itoa(requests))
	waitFor(t, 10*time.Second, "request executed by the primary", func() bool {
		return ra.node.Engine().StatsSnapshot().RequestsExecuted >= 10
	})
	ra.node.Stop()
	if n := ra.node.Engine().StatsSnapshot().RequestsExecuted; n >= requests {
		t.Fatalf("the primary executed all %d requests before it crashed", n)
	}
	select {
	case err := <-client.done:
		if err != nil {
			t.Fatalf("client: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("client did not finish its requests after the primary crashed")
	}

	var primary *role
	for _, r := range []*role{rb, rc} {
		if r.node.Engine().StatsSnapshot().Failovers > 0 {
			primary = r
		}
	}
	if primary == nil {
		t.Fatal("no survivor failed over")
	}
	if got := primary.node.State().(*workload.BenchApp).Counter(); got != requests {
		t.Fatalf("new primary's counter = %d after %d requests", got, requests)
	}
	metrics := get(t, primary, "/metrics")
	if _, err := obsplane.ValidateExposition(bytes.NewReader(metrics)); err != nil {
		t.Fatalf("/metrics exposition: %v", err)
	}
	if v, ok := sample(metrics, "versadep_replication_failovers"); !ok || v < 1 {
		t.Fatalf("versadep_replication_failovers = %v (present %v), want >= 1", v, ok)
	}
	if _, ok := sample(metrics, "versadep_process_goroutines"); !ok {
		t.Fatal("/metrics has no versadep_process_goroutines")
	}
	writes, _ := sample(metrics, "versadep_transport_writes")
	frames, _ := sample(metrics, "versadep_transport_frames_sent")
	if writes <= 0 || frames < writes {
		t.Fatalf("versadep_transport_writes = %v, frames_sent = %v; want frames_sent >= writes > 0", writes, frames)
	}
	// Each joiner logs its one transfer's completion once.
	for _, j := range []string{"rb", "rc"} {
		if n := log.count("[" + j + "] transfer complete with "); n != 1 {
			t.Errorf("%s logged %d transfer completions, want 1", j, n)
		}
	}
	if slo := get(t, primary, "/slo"); !bytes.Contains(slo, []byte(`"attainment"`)) {
		t.Fatalf("/slo has no attainment: %s", slo)
	}

	agg := startRole(t, log, "-role", "aggregator", "-bind", "127.0.0.1:0", "-scrape-every", "20ms",
		"-scrape", "rb=http://"+rb.intro+",rc@0=http://"+rc.intro, "-slo", "avail>0.9:1s")
	waitFor(t, 10*time.Second, "clean scrape of both survivors", func() bool {
		var st obsplane.AggregatorStatus
		if err := json.Unmarshal(get(t, agg, "/aggregator"), &st); err != nil {
			t.Fatal(err)
		}
		for _, tg := range st.Targets {
			if tg.LastError != "" || tg.LastScrapeUnixNanos == 0 {
				return false
			}
		}
		return len(st.Targets) == 2
	})
	merged := get(t, agg, "/metrics")
	if _, err := obsplane.ValidateExposition(bytes.NewReader(merged)); err != nil {
		t.Fatalf("aggregator /metrics exposition: %v", err)
	}
	if !bytes.Contains(merged, []byte(`versadep_shard_up{shard="0",node="rc"} 1`)) {
		t.Fatal("aggregator /metrics has no up-gauge for the annotated target")
	}
	if slo := get(t, agg, "/slo"); !bytes.Contains(slo, []byte(`"attainment"`)) {
		t.Fatalf("aggregator /slo has no attainment: %s", slo)
	}
}
