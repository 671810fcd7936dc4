package link

import (
	"bytes"
	"fmt"

	"injectable/internal/ble"
	"injectable/internal/ble/crc"
	"injectable/internal/ble/pdu"
	"injectable/internal/medium"
	"injectable/internal/phy"
	"injectable/internal/sim"
)

// AdvertiserConfig configures advertising behaviour.
type AdvertiserConfig struct {
	// AdvData is the advertisement payload (≤ 31 bytes of AD structures).
	AdvData []byte
	// ScanData answers active scans.
	ScanData []byte
	// Interval between advertising events; the spec adds a 0–10 ms random
	// delay on top. Zero means 100 ms.
	Interval sim.Duration
}

// Advertiser broadcasts connectable advertisements on channels 37–39 and
// accepts incoming CONNECT_REQ PDUs, yielding slave connections.
type Advertiser struct {
	stack *Stack
	cfg   AdvertiserConfig
	// Event labels, built once so scheduling allocates no string.
	eventLabel, rxCloseLabel, scanRspLabel string

	running bool
	chanIdx int
	epoch   uint64 // invalidates stale per-channel timers
	// pending holds the refs of queued timers so Stop can cancel them;
	// appendPending keeps it O(live timers).
	pending []sim.EventRef

	// advInd caches the ADV_IND frame sent on every channel of every
	// event, with the address and AdvData it was built from: the frame is
	// rebuilt only when either changes (a clone rewrites Stack.Address).
	// Sharing it is safe because the medium copies the PDU on Transmit.
	advInd     medium.Frame
	advIndAddr ble.Address
	advIndData []byte

	// Callbacks bound once in NewAdvertiser so the per-channel scheduling
	// allocates no closure.
	eventFn, txDoneFn func()
	rxCloseFn         func(_ any, epoch uint64)
	onFrameFn         func(rx medium.Received)

	// OnConnect fires when a CONNECT_REQ addressed to us establishes a
	// slave connection.
	OnConnect func(c *Conn)
}

// NewAdvertiser builds an advertiser on the stack.
func NewAdvertiser(stack *Stack, cfg AdvertiserConfig) *Advertiser {
	if cfg.Interval == 0 {
		cfg.Interval = 100 * sim.Millisecond
	}
	a := &Advertiser{
		stack:        stack,
		cfg:          cfg,
		eventLabel:   stack.Name + ":adv-event",
		rxCloseLabel: stack.Name + ":adv-rx-close",
		scanRspLabel: stack.Name + ":scan-rsp",
	}
	a.eventFn = a.startEvent
	a.txDoneFn = a.txDone
	a.rxCloseFn = a.rxClose
	a.onFrameFn = a.onFrame
	return a
}

// Start begins advertising.
func (a *Advertiser) Start() {
	if a.running {
		return
	}
	a.running = true
	a.stack.Radio.SetAccessAddress(uint32(ble.AdvertisingAccessAddress))
	a.scheduleEvent(a.stack.RNG.Duration(5 * sim.Millisecond))
}

// Stop ceases advertising (a peripheral stops when connected).
func (a *Advertiser) Stop() {
	a.running = false
	for _, ev := range a.pending {
		a.stack.Sched.Cancel(ev)
	}
	a.pending = a.pending[:0]
	a.stack.Radio.OnFrame = nil
	a.stack.Radio.OnTxDone = nil
	a.stack.Radio.StopListening()
}

func (a *Advertiser) scheduleEvent(d sim.Duration) {
	a.pending = appendPending(a.pending, a.stack.Sched.After(d, a.eventLabel, a.eventFn))
}

// startEvent begins an advertising event on the first channel.
func (a *Advertiser) startEvent() {
	a.chanIdx = 0
	a.advertiseOnNext()
}

// advIndFrame returns the ADV_IND frame for the current address and
// AdvData, rebuilding the cached one only when either has changed.
func (a *Advertiser) advIndFrame() medium.Frame {
	if a.advInd.PDU == nil || a.advIndAddr != a.stack.Address || !bytes.Equal(a.advIndData, a.cfg.AdvData) {
		adv := pdu.AdvInd{AdvAddr: a.stack.Address, AdvData: a.cfg.AdvData, ChSel: true}
		a.advInd = advFrame(adv.Marshal())
		a.advIndAddr = a.stack.Address
		a.advIndData = append(a.advIndData[:0], a.cfg.AdvData...)
	}
	return a.advInd
}

// advertiseOnNext transmits ADV_IND on the next advertising channel and
// listens briefly for SCAN_REQ / CONNECT_REQ.
func (a *Advertiser) advertiseOnNext() {
	if !a.running || a.stack.Radio.Transmitting() {
		return
	}
	a.epoch++
	if a.chanIdx >= len(phy.AdvChannels()) {
		// Event over; next event after interval + advDelay(0..10 ms).
		a.scheduleEvent(a.cfg.Interval + a.stack.RNG.Duration(10*sim.Millisecond))
		return
	}
	ch := phy.AdvChannels()[a.chanIdx]
	a.chanIdx++
	a.stack.Radio.SetChannel(ch)

	frame := a.advIndFrame()
	a.stack.Radio.OnTxDone = a.txDoneFn
	a.stack.trace("adv-tx", func() []sim.Field {
		return []sim.Field{sim.F("ch", ch)}
	})
	a.stack.Radio.Transmit(frame)
}

// txDone follows an ADV_IND: listen T_IFS + a CONNECT_REQ air time for a
// request, then move on (rxClose).
func (a *Advertiser) txDone() {
	a.stack.Radio.OnTxDone = nil
	if !a.running {
		return
	}
	a.stack.Radio.OnFrame = a.onFrameFn
	a.stack.Radio.StartListening()
	window := ble.TIFS + phy.LE1M.AirTime(36) + 20*sim.Microsecond
	sched := a.stack.Sched
	a.pending = appendPending(a.pending,
		sched.AtArg(sched.Now().Add(window), a.rxCloseLabel, a.rxCloseFn, nil, a.epoch))
}

// rxClose ends the listen after an ADV_IND opened at epoch.
func (a *Advertiser) rxClose(_ any, epoch uint64) {
	if !a.running || a.epoch != epoch {
		return // a frame arrived and moved the event along
	}
	if a.stack.Radio.Locked() || a.stack.Radio.Acquiring() {
		return
	}
	a.stack.Radio.StopListening()
	a.advertiseOnNext()
}

// onFrame handles SCAN_REQ and CONNECT_REQ while advertising.
func (a *Advertiser) onFrame(rx medium.Received) {
	if !a.running {
		return
	}
	a.epoch++ // invalidate the pending rx-close timer for this channel
	if !crc.Check(ble.AdvertisingCRCInit, rx.Frame.PDU, rx.Frame.CRC) {
		a.advertiseOnNext()
		return
	}
	p, err := pdu.UnmarshalAdvPDU(rx.Frame.PDU)
	if err != nil {
		a.advertiseOnNext()
		return
	}
	switch p.Type {
	case pdu.ScanReqType:
		req, err := pdu.UnmarshalScanReq(p.Payload)
		if err != nil || req.AdvAddr != a.stack.Address {
			a.advertiseOnNext()
			return
		}
		rsp := pdu.ScanRsp{AdvAddr: a.stack.Address, ScanData: a.cfg.ScanData}
		frame := advFrame(rsp.Marshal())
		a.stack.Clock.AtLocalOffset(rx.EndAt, ble.TIFS, a.scanRspLabel, func() {
			if !a.running {
				return
			}
			a.stack.Radio.OnTxDone = func() {
				a.stack.Radio.OnTxDone = nil
				a.advertiseOnNext()
			}
			a.stack.Radio.Transmit(frame)
		})
	case pdu.ConnectReqType:
		req, err := pdu.UnmarshalConnectReq(p.Payload)
		if err != nil || req.AdvAddr != a.stack.Address {
			a.advertiseOnNext()
			return
		}
		req.ChSel = p.ChSel // carried in the PDU header
		if err := req.Validate(); err != nil {
			a.stack.trace("connect-req-invalid", func() []sim.Field {
				return []sim.Field{sim.F("err", err.Error())}
			})
			a.advertiseOnNext()
			return
		}
		a.stack.trace("connect-req", func() []sim.Field {
			return []sim.Field{sim.F("from", req.InitAddr.String())}
		})
		a.Stop()
		conn, err := NewSlaveConn(a.stack, FromConnectReq(req), req.InitAddr, rx.EndAt)
		if err != nil {
			a.stack.trace("conn-failed", func() []sim.Field {
				return []sim.Field{sim.F("err", err.Error())}
			})
			return
		}
		if a.OnConnect != nil {
			a.OnConnect(conn)
		}
	default:
		a.advertiseOnNext()
	}
}

// advFrame builds an advertising-channel frame with the fixed AA and CRC
// init.
func advFrame(pduBytes []byte) medium.Frame {
	return medium.Frame{
		Mode:          phy.LE1M,
		AccessAddress: uint32(ble.AdvertisingAccessAddress),
		PDU:           pduBytes,
		CRC:           crc.Compute(ble.AdvertisingCRCInit, pduBytes),
	}
}

// String implements fmt.Stringer.
func (a *Advertiser) String() string {
	return fmt.Sprintf("Advertiser(%s)", a.stack.Address)
}
