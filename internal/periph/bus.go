package periph

import (
	"fmt"

	"repro/internal/logic"
)

// Config parameterizes the peripheral subsystem, chiefly the ADC arrival
// window the symbolic exploration must cover. The zero value selects the
// documented defaults.
type Config struct {
	// MinLatency is the earliest possible conversion completion, in
	// cycles after the ADGO trigger. Default 8.
	MinLatency int `json:"min_latency,omitempty"`
	// MaxLatency is the latest possible completion — the end of the
	// arrival window. The peak-power bound holds for every arrival cycle
	// in [MinLatency, MaxLatency]. Default MinLatency + 16.
	MaxLatency int `json:"max_latency,omitempty"`
	// ConcreteLatency is the latency used by concrete (input-based) runs;
	// it must lie inside the window. Default: the window midpoint.
	ConcreteLatency int `json:"concrete_latency,omitempty"`
	// RadioBusyCycles is how long the radio's busy flag holds after a
	// transmission starts. Default 16.
	RadioBusyCycles int `json:"radio_busy_cycles,omitempty"`
}

// Normalized fills defaults and clamps ConcreteLatency into the window.
// Bus construction and cache keying both use the normalized form, so two
// configs that normalize equally are the same analysis.
func (c Config) Normalized() Config {
	if c.MinLatency <= 0 {
		c.MinLatency = 8
	}
	if c.MaxLatency < c.MinLatency {
		c.MaxLatency = c.MinLatency + 16
	}
	if c.ConcreteLatency < c.MinLatency || c.ConcreteLatency > c.MaxLatency {
		c.ConcreteLatency = (c.MinLatency + c.MaxLatency) / 2
	}
	if c.RadioBusyCycles <= 0 {
		c.RadioBusyCycles = 16
	}
	return c
}

// Bus is the peripheral interconnect: it routes word accesses to the
// devices through the declarative address map and aggregates their
// interrupt requests into the single CPU IRQ line. Interrupt priority is
// the device order: timer above ADC (the radio never interrupts).
type Bus struct {
	cfg      Config
	symbolic bool

	timer *Timer
	adc   *ADC
	radio *Radio
	devs  []Device // address-map Tag indexes this slice; also IRQ priority order
	m     *Map
}

// NewBus builds the peripheral subsystem. symbolic selects the analysis
// mode: the ADC completion becomes a windowed symbolic event and sample
// data reads as X.
func NewBus(cfg Config, symbolic bool) *Bus {
	cfg = cfg.Normalized()
	b := &Bus{
		cfg:      cfg,
		symbolic: symbolic,
		timer:    &Timer{},
		adc: &ADC{
			symbolic: symbolic,
			minLat:   uint64(cfg.MinLatency),
			maxLat:   uint64(cfg.MaxLatency),
			concLat:  uint64(cfg.ConcreteLatency),
		},
		radio: &Radio{busyCycles: uint16(cfg.RadioBusyCycles)},
	}
	b.devs = []Device{b.timer, b.adc, b.radio}
	areas := make([]Area, len(b.devs))
	for i, d := range b.devs {
		var start uint32
		switch d.(type) {
		case *Timer:
			start = TACTL
		case *ADC:
			start = ADCTL
		case *Radio:
			start = RFCTL
		}
		areas[i] = Area{Name: d.Name(), Start: start, End: start + 6, Tag: i}
	}
	b.m = MustMap(areas...)
	return b
}

// Config returns the normalized configuration the bus runs with.
func (b *Bus) Config() Config { return b.cfg }

// Timer returns the timer device (test and example hook).
func (b *Bus) Timer() *Timer { return b.timer }

// ADC returns the ADC device (test and example hook).
func (b *Bus) ADC() *ADC { return b.adc }

// Radio returns the radio device (test and example hook).
func (b *Bus) Radio() *Radio { return b.radio }

// Claims reports whether addr belongs to a device register.
func (b *Bus) Claims(addr uint16) bool {
	_, ok := b.m.Lookup(addr)
	return ok
}

// Reset returns every device to power-on state.
func (b *Bus) Reset() {
	for _, d := range b.devs {
		d.Reset()
	}
}

// Tick advances every device one cycle.
func (b *Bus) Tick(now uint64) {
	for _, d := range b.devs {
		d.Tick(now)
	}
}

// Read services a word load from device space in the three-valued
// domain.
func (b *Bus) Read(addr uint16) (val, xmask uint16, err error) {
	a, ok := b.m.Lookup(addr)
	if !ok {
		return 0, 0, fmt.Errorf("periph: no device at %#04x", addr)
	}
	val, xmask = b.devs[a.Tag].Read(addr)
	return val, xmask, nil
}

// Write services a word store to device space.
func (b *Bus) Write(addr uint16, v uint16, now uint64) error {
	a, ok := b.m.Lookup(addr)
	if !ok {
		return fmt.Errorf("periph: no device at %#04x", addr)
	}
	return b.devs[a.Tag].Write(addr, v, now)
}

// Line is the aggregated IRQ line at cycle now: H when any device has a
// concrete pending interrupt, X while the ADC's arrival window is open
// (completion possible but not certain — the symbolic event the
// exploration forks on), L otherwise.
func (b *Bus) Line(now uint64) logic.Trit {
	for _, d := range b.devs {
		if d.Pending() {
			return logic.H
		}
	}
	if b.adc.MaybePending(now) {
		return logic.X
	}
	return logic.L
}

// Deliver resolves the open symbolic event as "arrived" — the taken
// direction of an IRQ fork. The ADC flag latches, so the line reads a
// concrete H until the CPU fetches the vector.
func (b *Bus) Deliver() { b.adc.ForceDeliver() }

// TakeVector is the CPU's vector fetch: it picks the highest-priority
// pending device, acknowledges it (hardware flag clear), and returns the
// ROM address of its vector-table entry. ok is false for a spurious
// fetch with nothing pending.
func (b *Bus) TakeVector() (vec uint16, ok bool) {
	for _, d := range b.devs {
		if d.Pending() {
			d.Ack()
			return d.Vector(), true
		}
	}
	return 0, false
}

// BusState is the flat, comparable snapshot of every device register —
// cheap enough to copy into the mark the symbolic engine sets before
// every cycle.
type BusState struct {
	TimerEn, TimerIE, TimerIFG bool
	TimerCnt, TimerCcr         uint16

	ADCIE, ADCIFG, ADCArmed bool
	ADCTrig                 uint64
	ADCSample, ADCSeq       uint16

	RadioBusy, RadioTX, RadioSent uint16
}

// State captures the device state.
func (b *Bus) State() BusState {
	return BusState{
		TimerEn: b.timer.en, TimerIE: b.timer.ie, TimerIFG: b.timer.ifg,
		TimerCnt: b.timer.cnt, TimerCcr: b.timer.ccr,
		ADCIE: b.adc.ie, ADCIFG: b.adc.ifg, ADCArmed: b.adc.armed,
		ADCTrig: b.adc.trig, ADCSample: b.adc.sample, ADCSeq: b.adc.seq,
		RadioBusy: b.radio.busy, RadioTX: b.radio.tx, RadioSent: b.radio.sent,
	}
}

// SetState restores a captured device state.
func (b *Bus) SetState(st BusState) {
	b.timer.en, b.timer.ie, b.timer.ifg = st.TimerEn, st.TimerIE, st.TimerIFG
	b.timer.cnt, b.timer.ccr = st.TimerCnt, st.TimerCcr
	b.adc.ie, b.adc.ifg, b.adc.armed = st.ADCIE, st.ADCIFG, st.ADCArmed
	b.adc.trig, b.adc.sample, b.adc.seq = st.ADCTrig, st.ADCSample, st.ADCSeq
	b.radio.busy, b.radio.tx, b.radio.sent = st.RadioBusy, st.RadioTX, st.RadioSent
}

// Hash folds the device state into an FNV-style digest for execution-tree
// state merging. While the ADC's arrival window is open the digest also
// mixes the absolute cycle: two states that look identical but sit at
// different distances from the window's end have different futures, so
// merging them would be unsound.
func (b *Bus) Hash(now uint64) uint64 {
	const prime = 1099511628211
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	bit := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	mix(bit(b.timer.en) | bit(b.timer.ie)<<1 | bit(b.timer.ifg)<<2 |
		uint64(b.timer.cnt)<<3 | uint64(b.timer.ccr)<<19)
	mix(bit(b.adc.ie) | bit(b.adc.ifg)<<1 | bit(b.adc.armed)<<2 |
		uint64(b.adc.sample)<<3 | uint64(b.adc.seq)<<19)
	mix(b.adc.trig)
	mix(uint64(b.radio.busy) | uint64(b.radio.tx)<<16 | uint64(b.radio.sent)<<32)
	if b.adc.MaybePending(now) || (b.symbolic && b.adc.armed) {
		mix(now)
	}
	return h
}
