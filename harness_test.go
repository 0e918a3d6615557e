package versadep

import (
	"reflect"
	"testing"
)

// nullApp is the least an Application can be.
type nullApp struct{}

func (nullApp) Invoke(string, []Value) ([]Value, error) { return nil, nil }
func (nullApp) State() []byte                           { return nil }
func (nullApp) Restore([]byte) error                    { return nil }

// TestEndpointNamesArePinned holds the addresses a System gives its
// endpoints: GCS derives a member's jitter seed from its address and ranks
// members by it, so a renamed endpoint is a different run.
func TestEndpointNamesArePinned(t *testing.T) {
	sys := NewSystem()
	defer sys.Close()
	g, err := sys.StartGroup("kv", 2, GroupConfig{NewApp: func() Application { return nullApp{} }})
	if err != nil {
		t.Fatal(err)
	}
	added, err := g.AddReplica()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"kv/replica-0", "kv/replica-1", "kv/replica-2"}; !reflect.DeepEqual(g.Members(), want) || added != want[2] {
		t.Errorf("replicas %v (added %s), want %v", g.Members(), added, want)
	}
	for _, want := range []string{"kv/client-1", "kv/client-2"} {
		c, err := sys.NewClient(g)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.node.Addr(); got != want {
			t.Errorf("client on %s, want %s", got, want)
		}
	}
}
