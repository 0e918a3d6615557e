package replicator_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"versadep/internal/replication"
	"versadep/internal/simnet"
	"versadep/internal/trace"
)

// goldenRequestSpans is every span one request leaves behind on a client
// and three active replicas, as "trace name comp node", taken from the
// snapshots of the tree before spans were keyed by value (trace names were
// then built at the recording site). What is exported must not depend on
// how a trace is named inside the recorder.
var goldenRequestSpans = strings.Split(strings.TrimSpace(`
req:client#1 app_execute Application ra
req:client#1 app_execute Application rb
req:client#1 app_execute Application rc
req:client#1 client_marshal ORB client
req:client#1 client_unmarshal ORB client
req:client#1 gc_order GroupCommunication ra
req:client#1 gc_recv_agreed GroupCommunication ra
req:client#1 gc_recv_agreed GroupCommunication rb
req:client#1 gc_recv_agreed GroupCommunication rc
req:client#1 gc_recv_direct GroupCommunication client
req:client#1 gc_recv_direct GroupCommunication client
req:client#1 gc_recv_direct GroupCommunication client
req:client#1 gc_recv_submit GroupCommunication ra
req:client#1 gc_send_direct GroupCommunication ra
req:client#1 gc_send_direct GroupCommunication rb
req:client#1 gc_send_direct GroupCommunication rc
req:client#1 gc_submit GroupCommunication client
req:client#1 intercept_deliver Replicator client
req:client#1 intercept_submit Replicator client
req:client#1 invoke  client
req:client#1 orb_marshal ORB ra
req:client#1 orb_marshal ORB rb
req:client#1 orb_marshal ORB rc
req:client#1 orb_unmarshal ORB ra
req:client#1 orb_unmarshal ORB rb
req:client#1 orb_unmarshal ORB rc
req:client#1 replicator_deliver Replicator ra
req:client#1 replicator_deliver Replicator rb
req:client#1 replicator_deliver Replicator rc
req:client#1 replicator_reply Replicator ra
req:client#1 replicator_reply Replicator rb
req:client#1 replicator_reply Replicator rc
`), "\n")

func TestRequestSpansExportedAsBefore(t *testing.T) {
	net := simnet.New(simnet.WithSeed(11))
	defer net.Close()
	c := startCluster(t, net, 3, replication.Active, 0, nil)
	cl := startTestClient(t, net, "client", c.members())
	if _, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, 0); err != nil {
		t.Fatal(err)
	}

	// The two slower replicas finish after the client has its answer.
	var got []string
	deadline := time.Now().Add(2 * time.Second)
	for {
		snaps := []trace.Snapshot{cl.TraceSnapshot()}
		for _, n := range c.nodes {
			snaps = append(snaps, n.TraceSnapshot())
		}
		got = got[:0]
		for _, s := range trace.Merge(snaps...).Spans {
			if s.Trace == "req:client#1" {
				got = append(got, fmt.Sprintf("%s %s %s %s", s.Trace, s.Name, s.Comp, s.Node))
			}
		}
		if len(got) >= len(goldenRequestSpans) || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(goldenRequestSpans, "\n") {
		t.Errorf("spans of one request:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(goldenRequestSpans, "\n"))
	}
}
