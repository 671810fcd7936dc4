package link

import (
	"bytes"
	"testing"

	"injectable/internal/ble"
	"injectable/internal/ble/pdu"
	"injectable/internal/medium"
	"injectable/internal/phy"
	"injectable/internal/sim"
)

// maxLiveTimers bounds a timer list: a connection or advertiser has at
// most a few timers queued at once, so its list must not grow past a small
// constant however long it runs.
const maxLiveTimers = 8

// TestConnTimerListsStayBounded runs a connection for 60 s (2000 events)
// and checks that neither end's timer list grows with the event count.
func TestConnTimerListsStayBounded(t *testing.T) {
	rg := newRig(t, ConnParams{Interval: 24})
	rg.connect(t)
	worst := 0
	watch := func(c *Conn) {
		c.OnEvent = func(EventInfo) {
			if n := cap(c.timers); n > worst {
				worst = n
			}
		}
	}
	watch(rg.master)
	watch(rg.slave)
	start := rg.master.EventCounter()
	rg.sched.RunFor(60 * sim.Second)
	if rg.master.Closed() || rg.slave.Closed() {
		t.Fatal("connection dropped")
	}
	if n := rg.master.EventCounter() - start; n < 1900 {
		t.Fatalf("only %d events in 60 s at 30 ms", n)
	}
	if worst > maxLiveTimers {
		t.Fatalf("timer list capacity reached %d over 60 s, want ≤ %d", worst, maxLiveTimers)
	}
}

// advObserver records every ADV_IND on channel 37 (one per advertising
// event) and the advertiser's pending-timer list at that moment.
type advObserver struct {
	a      *Advertiser
	events int
	worst  int
	frames []medium.Frame
}

func (o *advObserver) ObserveTx(tx medium.TxObservation) {
	if tx.Source != o.a.stack.Name || tx.Channel != 37 {
		return
	}
	o.events++
	o.frames = append(o.frames, tx.Frame)
	if n := cap(o.a.pending); n > o.worst {
		o.worst = n
	}
}

// TestAdvertiserPendingStaysBoundedAndFrameCached runs 100 advertising
// events with nobody answering. The pending-timer list must stay small,
// and every ADV_IND on air must equal a fresh marshal for the address in
// force — including after the address is rewritten mid-run, as a clone
// does.
func TestAdvertiserPendingStaysBoundedAndFrameCached(t *testing.T) {
	rg := newRig(t, ConnParams{Interval: 24})
	o := &advObserver{a: rg.advertiser}
	rg.med.AddObserver(o)
	rg.advertiser.Start()
	first := rg.perStack.Address
	for o.events < 50 {
		rg.sched.Step()
	}
	second := ble.RandomAddress(sim.NewRNG(7))
	rg.perStack.Address = second
	for o.events < 100 {
		rg.sched.Step()
	}
	if o.worst > maxLiveTimers {
		t.Fatalf("pending list capacity reached %d over 100 events, want ≤ %d", o.worst, maxLiveTimers)
	}
	fresh := func(addr ble.Address) medium.Frame {
		return advFrame(pdu.AdvInd{AdvAddr: addr, AdvData: rg.advertiser.cfg.AdvData, ChSel: true}.Marshal())
	}
	for i, f := range o.frames {
		addr := first
		if i >= 50 {
			addr = second
		}
		want := fresh(addr)
		if !bytes.Equal(f.PDU, want.PDU) || f.CRC != want.CRC || f.AccessAddress != want.AccessAddress {
			t.Fatalf("event %d: ADV_IND %x/%06x, fresh marshal %x/%06x", i, f.PDU, f.CRC, want.PDU, want.CRC)
		}
	}
}

// TestAdvIndFrameCacheRebuildsOnChange checks the cache directly: repeated
// calls share one frame, and a new address or in-place AdvData edit
// rebuilds it to equal a fresh marshal.
func TestAdvIndFrameCacheRebuildsOnChange(t *testing.T) {
	sched := sim.NewScheduler()
	med := medium.New(sched, sim.NewRNG(1), medium.Config{})
	st := newStack(t, sched, med, sim.NewRNG(2), "adv", phy.Position{}, 0)
	data := []byte{0x02, 0x01, 0x06}
	a := NewAdvertiser(st, AdvertiserConfig{AdvData: data})
	check := func(when string) medium.Frame {
		t.Helper()
		got := a.advIndFrame()
		want := advFrame(pdu.AdvInd{AdvAddr: st.Address, AdvData: data, ChSel: true}.Marshal())
		if !bytes.Equal(got.PDU, want.PDU) || got.CRC != want.CRC {
			t.Fatalf("%s: cached %x/%06x, fresh %x/%06x", when, got.PDU, got.CRC, want.PDU, want.CRC)
		}
		return got
	}
	f1 := check("first build")
	if f2 := check("cached"); &f2.PDU[0] != &f1.PDU[0] {
		t.Fatal("unchanged inputs rebuilt the frame")
	}
	st.Address = ble.RandomAddress(sim.NewRNG(3))
	check("new address")
	data[2] = 0x04
	check("edited AdvData")
}
