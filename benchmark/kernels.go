package main

import (
	"fmt"
	"runtime"
	"time"

	"versadep/internal/codec"
	"versadep/internal/gcs"
	"versadep/internal/orb"
	"versadep/internal/replication"
	"versadep/internal/simnet"
	"versadep/internal/transport"
	"versadep/internal/transport/tcptransport"
	"versadep/internal/vtime"
	"versadep/internal/workload"
)

// kernels are the layers' public functions timed in isolation at one
// workload's payload sizes: the per-call cost the traced run's per-request
// call counts are multiplied with. They run in the parent process after
// the rounds, when nothing else of the harness is busy.
type kernels struct {
	SealNs, VerifyNs float64

	CodecEncodeNs, CodecDecodeNs, CodecAllocs float64

	OrbRequestNs, OrbReplyNs, OrbAllocs float64

	EnvelopeNs float64

	SimnetHopUs, TCPHopUs float64

	AgreedUs, AgreedAllocs float64

	DirectRTTUs float64
}

// timeOp runs fn n times and returns its mean time and allocations.
func timeOp(n int, fn func()) (ns, allocs float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// frameOverhead approximates the headers a request gathers on its way to
// the wire (VIOP, replication envelope, GCS frame, protocol byte), so the
// seal and hop kernels see a frame of the size the workload's carry.
const frameOverhead = 120

func measureKernels(spec workloadSpec) (*kernels, error) {
	k := &kernels{}
	model := vtime.DefaultCostModel()

	frame := make([]byte, spec.ReqBytes+frameOverhead, spec.ReqBytes+frameOverhead+codec.SealOverhead)
	var sealed []byte
	k.SealNs, _ = timeOp(20000, func() { sealed = codec.AppendChecksum(frame) })
	k.VerifyNs, _ = timeOp(20000, func() { _, _ = codec.VerifyChecksum(sealed) })

	value := codec.List(codec.Int(42), codec.String("operation"), codec.Bytes(make([]byte, spec.ReqBytes)))
	var encoded []byte
	var encAllocs, decAllocs float64
	k.CodecEncodeNs, encAllocs = timeOp(20000, func() { encoded = codec.EncodeValue(value) })
	k.CodecDecodeNs, decAllocs = timeOp(20000, func() { _, _ = codec.DecodeValue(encoded) })
	k.CodecAllocs = encAllocs + decAllocs

	req := &orb.Request{ClientID: "c1", ReqID: 7, Object: "Bench", Operation: "work",
		Args: []codec.Value{codec.Bytes(make([]byte, spec.ReqBytes))}}
	rep := &orb.Reply{ClientID: "c1", ReqID: 7, Status: orb.StatusOK,
		Results: []codec.Value{codec.Int(7), codec.Bytes(make([]byte, spec.ReplyBytes))}}
	var reqAllocs, repAllocs float64
	k.OrbRequestNs, reqAllocs = timeOp(20000, func() { _, _ = orb.DecodeRequest(orb.EncodeRequest(req)) })
	k.OrbReplyNs, repAllocs = timeOp(20000, func() { _, _ = orb.DecodeReply(orb.EncodeReply(rep)) })
	k.OrbAllocs = reqAllocs + repAllocs

	viop := orb.EncodeRequest(req)
	k.EnvelopeNs, _ = timeOp(20000, func() { _, _ = replication.Decode(replication.WrapRequest(viop)) })

	var err error
	if k.SimnetHopUs, err = simnetHop(sealed); err != nil {
		return nil, fmt.Errorf("simnet hop: %w", err)
	}
	if spec.TCP {
		if k.TCPHopUs, err = tcpHop(sealed); err != nil {
			return nil, fmt.Errorf("tcp hop: %w", err)
		}
	}
	if k.AgreedUs, k.AgreedAllocs, err = agreedDeliver(spec.ReqBytes + frameOverhead); err != nil {
		return nil, fmt.Errorf("gcs agreed: %w", err)
	}
	if k.DirectRTTUs, err = directRTT(spec, model); err != nil {
		return nil, fmt.Errorf("orb direct: %w", err)
	}
	return k, nil
}

// hopIterations is how many sequential messages the hop and round-trip
// kernels time; at tens of microseconds each the kernels stay well under a
// second together.
const hopIterations = 3000

// pingPong times Send on a → Recv on b, one message at a time.
func pingPong(a, b transport.Endpoint, payload []byte) (float64, error) {
	hop := func() error {
		if err := a.Send(b.Addr(), payload, 0); err != nil {
			return err
		}
		select {
		case <-b.Recv():
			return nil
		case <-time.After(2 * time.Second):
			return fmt.Errorf("message from %s to %s was not delivered", a.Addr(), b.Addr())
		}
	}
	for i := 0; i < 100; i++ { // connection set-up and first-use costs
		if err := hop(); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	for i := 0; i < hopIterations; i++ {
		if err := hop(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / hopIterations / 1e3, nil
}

func simnetHop(payload []byte) (float64, error) {
	net := simnet.New()
	defer net.Close()
	a, err := net.Endpoint("a")
	if err != nil {
		return 0, err
	}
	b, err := net.Endpoint("b")
	if err != nil {
		return 0, err
	}
	return pingPong(a, b, payload)
}

func tcpHop(payload []byte) (float64, error) {
	peersA, peersB := map[string]string{}, map[string]string{}
	a, err := tcptransport.Listen("a", "127.0.0.1:0", peersA)
	if err != nil {
		return 0, err
	}
	defer a.Close()
	b, err := tcptransport.Listen("b", "127.0.0.1:0", peersB)
	if err != nil {
		return 0, err
	}
	defer b.Close()
	peersA["b"] = b.BoundAddr()
	peersB["a"] = a.BoundAddr()
	return pingPong(a, b, payload)
}

// agreedDeliver times one agreed multicast through an isolated 3-member
// group: Multicast on one member until every member's Out() has delivered
// it.
func agreedDeliver(size int) (us, allocs float64, err error) {
	net := simnet.New()
	defer net.Close()
	delivered := make(chan struct{}, 3*hopIterations)
	var members []*gcs.Member
	defer func() {
		for _, m := range members {
			m.Stop()
		}
	}()
	var seeds []string
	for i := 0; i < replicas; i++ {
		ep, err := net.Endpoint(replicaAddr(i))
		if err != nil {
			return 0, 0, err
		}
		d := transport.NewDemux(ep)
		cfg := gcs.DefaultConfig()
		cfg.Seeds = seeds
		m := gcs.Open(d.Conn(transport.ProtoGCS), d.Conn(transport.ProtoGroupClient), cfg)
		d.Handle(transport.ProtoGCS, m.HandleTransport)
		d.Start()
		members = append(members, m)
		seeds = []string{replicaAddr(0)}
		go func() {
			for ev := range m.Out() {
				if ev.Kind == gcs.EventMessage {
					delivered <- struct{}{}
				}
			}
		}()
		deadline := time.Now().Add(10 * time.Second)
		for {
			v, err := m.View()
			if err == nil && len(v.Members) == i+1 {
				break
			}
			if time.Now().After(deadline) {
				return 0, 0, fmt.Errorf("isolated group did not reach %d members", i+1)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	payload := make([]byte, size)
	var failed error
	once := func() {
		if failed != nil {
			return
		}
		if err := members[0].Multicast(payload, gcs.Agreed, 0, vtime.Ledger{}); err != nil {
			failed = err
			return
		}
		for i := 0; i < replicas; i++ {
			select {
			case <-delivered:
			case <-time.After(2 * time.Second):
				failed = fmt.Errorf("agreed multicast was not delivered to every member")
				return
			}
		}
	}
	for i := 0; i < 100; i++ {
		once()
	}
	ns, allocs := timeOp(hopIterations, once)
	return ns / 1e3, allocs, failed
}

// directRTT times the unreplicated path — client ORB → DirectWire →
// orb.Server → servant — on simnet: the single-node floor under every
// replicated round trip.
func directRTT(spec workloadSpec, model vtime.CostModel) (float64, error) {
	net := simnet.New()
	defer net.Close()

	sEP, err := net.Endpoint("server")
	if err != nil {
		return 0, err
	}
	sd := transport.NewDemux(sEP)
	adapter := orb.NewAdapter(model)
	adapter.Register("Bench", workload.NewBenchApp(spec.StateBytes, execCost, spec.ReplyBytes))
	var cpu vtime.Server
	srv := orb.NewServer(sd.Conn(transport.ProtoVIOP), adapter, &cpu, model)
	sd.Handle(transport.ProtoVIOP, srv.HandleTransport)
	sd.Start()
	defer func() { srv.Stop(); _ = sd.Close() }()

	cEP, err := net.Endpoint("client")
	if err != nil {
		return 0, err
	}
	cd := transport.NewDemux(cEP)
	wire := orb.NewDirectWire(cd.Conn(transport.ProtoVIOP), "server", model)
	cd.Handle(transport.ProtoVIOP, wire.HandleTransport)
	cd.Start()
	client := orb.NewClient("client", wire, model, orb.WithTimeout(clientTimeout))
	defer func() { _ = client.Close(); _ = cd.Close() }()

	args := []codec.Value{codec.Bytes(make([]byte, spec.ReqBytes))}
	var failed error
	once := func() {
		if _, err := client.Invoke("Bench", "work", args, 0); err != nil && failed == nil {
			failed = err
		}
	}
	for i := 0; i < 100; i++ {
		once()
	}
	ns, _ := timeOp(hopIterations, once)
	return ns / 1e3, failed
}
