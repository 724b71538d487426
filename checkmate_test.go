package checkmate_test

import (
	"testing"
	"time"

	"checkmate"
)

func TestProtocolConstructors(t *testing.T) {
	cases := []struct {
		p    checkmate.Protocol
		name string
	}{
		{checkmate.NONE(), "NONE"},
		{checkmate.COOR(), "COOR"},
		{checkmate.UNC(), "UNC"},
		{checkmate.CIC(), "CIC"},
	}
	for _, c := range cases {
		if c.p.Name() != c.name {
			t.Errorf("protocol name = %q, want %q", c.p.Name(), c.name)
		}
		byName, err := checkmate.ProtocolByName(c.name)
		if err != nil || byName.Kind() != c.p.Kind() {
			t.Errorf("ProtocolByName(%q) = %v, %v", c.name, byName, err)
		}
	}
	if len(checkmate.AllProtocols()) != 4 {
		t.Error("AllProtocols should return 4 protocols")
	}
}

func TestPublicRunEndToEnd(t *testing.T) {
	for _, q := range []string{"q1", checkmate.QueryCyclic} {
		res, err := checkmate.Run(checkmate.RunConfig{
			Config: checkmate.EngineConfig{
				Protocol: checkmate.UNC(),
				Workers:  2,
				Seed:     9,
			},
			Query:    q,
			Rate:     4000,
			Duration: 700 * time.Millisecond,
			Nodes:    1000,
		})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if res.Summary.SinkCount == 0 {
			t.Fatalf("%s: no output", q)
		}
	}
}

func TestPublicEngineConstruction(t *testing.T) {
	broker := checkmate.NewBroker()
	if _, err := broker.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	job := &checkmate.JobSpec{
		Name: "api-test",
		Ops: []checkmate.OpSpec{
			{Name: "src", Source: &checkmate.SourceSpec{Topic: "t"}},
			{Name: "sink", Sink: true, New: func(int) checkmate.Operator { return nopOp{} }},
		},
		Edges: []checkmate.EdgeSpec{{From: 0, To: 1, Part: checkmate.Forward}},
	}
	eng, err := checkmate.NewEngine(checkmate.EngineConfig{
		Workers:  2,
		Protocol: checkmate.COOR(),
		Broker:   broker,
		Store:    checkmate.NewObjectStore(checkmate.ObjectStoreConfig{}),
		Recorder: checkmate.NewRecorder(time.Now(), time.Second, time.Second),
	}, job)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	eng.Stop()
}

type nopOp struct{}

func (nopOp) OnEvent(ctx checkmate.Context, ev checkmate.Event) {}
func (nopOp) Snapshot(enc *checkmate.Encoder)                   {}
func (nopOp) Restore(dec *checkmate.Decoder) error              { return nil }

func TestPublicWireRegistration(t *testing.T) {
	type rec struct{ A uint64 }
	_ = rec{}
	// IDs >= 100 are for applications; this test uses 199.
	checkmate.RegisterType(199, func(d *checkmate.Decoder) (checkmate.Value, error) {
		return &apiVal{N: d.Uvarint()}, d.Err()
	})
	enc := checkmate.NewEncoder(nil)
	v := &apiVal{N: 7}
	enc.Uvarint(uint64(v.TypeID()))
	v.MarshalWire(enc)
	dec := checkmate.NewDecoder(enc.Bytes())
	if id := dec.Uvarint(); id != 199 {
		t.Fatalf("type id = %d", id)
	}
	if n := dec.Uvarint(); n != 7 {
		t.Fatalf("payload = %d", n)
	}
}

type apiVal struct{ N uint64 }

func (v *apiVal) TypeID() uint16                   { return 199 }
func (v *apiVal) MarshalWire(e *checkmate.Encoder) { e.Uvarint(v.N) }

func TestFeatureAccess(t *testing.T) {
	f := checkmate.CIC().Features()
	if !f.MessageOverhead || !f.ForcedCheckpoints {
		t.Fatalf("CIC features = %+v", f)
	}
}

func TestPublicSemantics(t *testing.T) {
	for _, name := range []string{"exactly-once", "at-least-once", "at-most-once"} {
		sem, err := checkmate.SemanticsByName(name)
		if err != nil || sem.String() != name {
			t.Fatalf("SemanticsByName(%q) = %v, %v", name, sem, err)
		}
	}
	if checkmate.ExactlyOnce.String() != "exactly-once" {
		t.Fatal("ExactlyOnce constant mismatch")
	}
}

func TestPublicPolicies(t *testing.T) {
	cases := []struct {
		p    checkmate.TriggerPolicy
		want string
	}{
		{checkmate.IntervalPolicy{}, "UNC(fixed)"},
		{checkmate.EventCountPolicy{Events: 10}, "UNC(events=10)"},
		{checkmate.IdlePolicy{IdleFor: time.Millisecond}, "UNC(idle=1ms)"},
	}
	for _, c := range cases {
		p := checkmate.UNCWithPolicy(c.p)
		if p.Name() != c.want {
			t.Errorf("UNCWithPolicy name = %q, want %q", p.Name(), c.want)
		}
		if p.Kind() != checkmate.UNC().Kind() {
			t.Errorf("%s: wrong kind", c.want)
		}
	}
}

func TestPublicRunNewQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, q := range []string{"q2", "q5", "q11"} {
		res, err := checkmate.Run(checkmate.RunConfig{
			Config: checkmate.EngineConfig{
				Protocol: checkmate.UNC(),
				Workers:  2,
				Seed:     3,
			},
			Query:    q,
			Rate:     6000,
			Duration: 900 * time.Millisecond,
			Window:   150 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if res.Summary.SinkCount == 0 {
			t.Fatalf("%s: no output", q)
		}
	}
}

func TestPublicOutputModes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := checkmate.Run(checkmate.RunConfig{
		Config: checkmate.EngineConfig{
			Protocol: checkmate.COOR(),
			Workers:  2,
			Output:   checkmate.OutputTransactional,
			Seed:     3,
		},
		Query:    "q1",
		Rate:     6000,
		Duration: 900 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Visible == 0 || res.DuplicateUIDs != 0 {
		t.Fatalf("output stats = %+v dup=%d", res.Output, res.DuplicateUIDs)
	}
}

func TestPublicEventTimeQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := checkmate.Run(checkmate.RunConfig{
		Config: checkmate.EngineConfig{
			Protocol: checkmate.UNC(),
			Workers:  2,
			Seed:     3,
		},
		Query:    "q12et",
		Rate:     6000,
		Duration: 900 * time.Millisecond,
		Window:   150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.SinkCount == 0 || res.Summary.WatermarkMessages == 0 {
		t.Fatalf("q12et: sink=%d watermarks=%d", res.Summary.SinkCount, res.Summary.WatermarkMessages)
	}
}
