package l4s

import (
	"testing"
	"time"

	"athena/internal/rtp"
	"athena/internal/units"
)

func fb(ce, clean int) *rtp.Feedback {
	f := &rtp.Feedback{SSRC: 1}
	for i := 0; i < ce; i++ {
		f.Reports = append(f.Reports, rtp.ArrivalInfo{Seq: uint16(i), Received: true, ECE: true})
	}
	for i := 0; i < clean; i++ {
		f.Reports = append(f.Reports, rtp.ArrivalInfo{Seq: uint16(100 + i), Received: true})
	}
	return f
}

func TestBrakeOnCE(t *testing.T) {
	c := New(units.Mbps, 50*units.Kbps, 5*units.Mbps)
	c.OnFeedback(fb(10, 0), nil, time.Second) // 100% marked
	want := units.BitRate(float64(units.Mbps) * 0.75)
	if c.TargetRate() != want {
		t.Fatalf("rate = %v, want %v", c.TargetRate(), want)
	}
	if c.MarkFraction <= 0 {
		t.Fatal("mark fraction not tracked")
	}
}

func TestProportionalBrake(t *testing.T) {
	full := New(units.Mbps, 50*units.Kbps, 5*units.Mbps)
	half := New(units.Mbps, 50*units.Kbps, 5*units.Mbps)
	full.OnFeedback(fb(10, 0), nil, time.Second)
	half.OnFeedback(fb(5, 5), nil, time.Second)
	if half.TargetRate() <= full.TargetRate() {
		t.Fatalf("50%% marking should brake less than 100%%: %v vs %v",
			half.TargetRate(), full.TargetRate())
	}
}

func TestAccelerateWhenClean(t *testing.T) {
	c := New(units.Mbps, 50*units.Kbps, 5*units.Mbps)
	c.OnFeedback(fb(0, 10), nil, time.Second)
	if c.TargetRate() <= units.Mbps {
		t.Fatalf("clean feedback should accelerate: %v", c.TargetRate())
	}
}

func TestDelaySpikesWithoutMarksIgnored(t *testing.T) {
	// The M4 property: delay inflation without queue marks (HARQ retx)
	// does not brake the sender.
	c := New(units.Mbps, 50*units.Kbps, 5*units.Mbps)
	f := &rtp.Feedback{Reports: []rtp.ArrivalInfo{
		{Seq: 1, Received: true, Arrival: 10 * time.Second}, // huge delay, no CE
	}}
	c.OnFeedback(f, nil, time.Second)
	if c.TargetRate() < units.Mbps {
		t.Fatalf("unmarked delay spike braked the sender: %v", c.TargetRate())
	}
}

func TestEmptyFeedbackNoChange(t *testing.T) {
	c := New(units.Mbps, 50*units.Kbps, 5*units.Mbps)
	c.OnFeedback(&rtp.Feedback{Reports: []rtp.ArrivalInfo{{Seq: 1, Received: false}}}, nil, time.Second)
	if c.TargetRate() != units.Mbps {
		t.Fatal("loss-only feedback changed rate")
	}
	if c.Name() != "l4s" {
		t.Fatal("name")
	}
	c.OnPacketSent(0, 0, 0)
}
