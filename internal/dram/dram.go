// Package dram models the DDR4-2133 main memory of the simulated machine:
// per-IMC channel groups, access latency with a row-buffer (open page)
// locality model, and the per-channel bandwidth limits that cap aggregated
// memory bandwidth.
//
// Each Haswell-EP socket has four DDR4 channels (two per memory controller)
// running at 2133 MT/s, i.e. 17.06 GB/s per channel and 68.3 GB/s per
// socket (Section V-A).
//
//hsw:tier engine
package dram

import (
	"fmt"

	"haswellep/internal/units"
)

// Config describes one memory controller's DRAM attachment.
type Config struct {
	// Channels is the number of DDR channels on this controller.
	Channels int
	// DataRateMTs is the transfer rate in mega-transfers per second.
	DataRateMTs float64
	// BusBytes is the data bus width per channel in bytes.
	BusBytes int
	// BanksPerChannel is the number of independently open-able banks
	// (rank × bank groups × banks) reachable through one channel.
	BanksPerChannel int
	// RowBufferBytes is the page (row buffer) size of one bank.
	RowBufferBytes int64

	// Timing components, in nanoseconds.
	// CASLatencyNs is the column access time of an open row (tCL plus
	// data transfer of one line).
	CASLatencyNs float64
	// RowMissExtraNs is the additional precharge+activate time when the
	// access misses the row buffer (tRP + tRCD).
	RowMissExtraNs float64
	// ControllerNs is the scheduling/queuing overhead of the controller
	// for an unloaded access.
	ControllerNs float64

	// LatencyFactor scales every access latency of this controller; 0 and
	// 1 both mean a healthy channel. Fault plans set it above 1 to model a
	// degraded DRAM channel (internal/fault).
	LatencyFactor float64
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	if c.Channels <= 0 {
		return fmt.Errorf("dram: channel count must be positive, got %d", c.Channels)
	}
	if c.BusBytes <= 0 {
		return fmt.Errorf("dram: bus width must be positive, got %d", c.BusBytes)
	}
	if c.LatencyFactor < 0 {
		return fmt.Errorf("dram: latency factor must be non-negative, got %g", c.LatencyFactor)
	}
	return nil
}

// latencyFactor returns the effective latency multiplier (0 means healthy).
func (c Config) latencyFactor() float64 {
	if c.LatencyFactor <= 0 {
		return 1
	}
	return c.LatencyFactor
}

// DDR4_2133 is the paper's memory configuration: two channels per memory
// controller (four per socket), DDR4-2133, 8-byte bus, 16 banks, 8 KiB
// pages, CL15-class timings.
var DDR4_2133 = Config{
	Channels:        2,
	DataRateMTs:     2133,
	BusBytes:        8,
	BanksPerChannel: 16,
	RowBufferBytes:  8 * units.KiB,
	CASLatencyNs:    18.0,
	RowMissExtraNs:  29.0, // tRP + tRCD at DDR4-2133 CL15-class timings
	ControllerNs:    26.3, // queueing, scheduling, and on-DIMM overheads
}

// PeakChannelBandwidth returns the theoretical bandwidth of one channel.
func (c Config) PeakChannelBandwidth() units.Bandwidth {
	return units.Bandwidth(c.DataRateMTs * 1e6 * float64(c.BusBytes))
}

// PeakBandwidth returns the theoretical bandwidth of the whole controller.
func (c Config) PeakBandwidth() units.Bandwidth {
	return units.Bandwidth(float64(c.Channels)) * c.PeakChannelBandwidth()
}

// Controller is the DRAM side of one home agent.
type Controller struct {
	cfg Config
	// reads/writes count serviced line transfers.
	reads, writes uint64
}

// NewController builds a controller with the given configuration.
func NewController(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Controller{cfg: cfg}, nil
}

// MustController is NewController but panics on configuration errors; for
// tests and static configurations known to be valid (programmer error).
func MustController(cfg Config) *Controller {
	c, err := NewController(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

// OpenPageHitRate estimates the probability that a latency-bound random
// access within a resident footprint of the given size hits an already-open
// row. The controller can keep BanksPerChannel×Channels rows open
// (RowBufferBytes each); once the footprint exceeds that open capacity the
// hit rate decays proportionally. This reproduces the paper's footnote-7
// observation that DRAM latency is measurably lower for footprints below
// ~256 KiB because a larger portion of accesses reads from open pages.
func (c *Controller) OpenPageHitRate(footprint int64) float64 {
	const (
		pMax = 0.88 // refresh and bank conflicts keep some misses
		pMin = 0.12 // large random footprints still hit occasionally
	)
	openCap := int64(c.cfg.BanksPerChannel) * int64(c.cfg.Channels) * c.cfg.RowBufferBytes
	if footprint <= 0 {
		// Unknown/unbounded footprint: assume no open-page locality.
		return pMin
	}
	if footprint <= openCap {
		return pMax
	}
	p := pMax * float64(openCap) / float64(footprint)
	if p < pMin {
		p = pMin
	}
	return p
}

// AccessTime returns the expected unloaded latency of one line read from
// this controller for a random-access working set of the given footprint.
// It is the controller overhead plus the row-hit CAS time, plus the
// expected row-activation penalty, scaled by the channel's LatencyFactor
// when the configuration models a degraded channel.
//
// Calibration boundary: the DRAM timing parameters are nanosecond floats
// (CAS, row miss, controller overhead) and the open-page hit rate is a
// probability, so the expected latency is computed in float and converted
// to integer picoseconds exactly once, here.
//
//hsw:calibration expected-value DRAM latency model converts ns floats once
func (c *Controller) AccessTime(footprint int64) units.Time {
	p := c.OpenPageHitRate(footprint)
	ns := c.cfg.ControllerNs + c.cfg.CASLatencyNs + (1-p)*c.cfg.RowMissExtraNs
	return units.FromNanoseconds(ns * c.cfg.latencyFactor())
}

// ReadEfficiency is the fraction of peak bandwidth a pure read stream
// sustains (command/refresh overheads).
const ReadEfficiency = 0.92

// WriteEfficiency is the fraction of peak bandwidth available to the write
// data of a streaming write. Streaming writes on this machine perform a
// read-for-ownership plus an eventual writeback, so the observable write
// bandwidth is further halved by the protocol; that accounting happens in
// the bandwidth model, not here. The raw bus efficiency for the mixed
// RFO+WB pattern is lower than for pure reads due to bus turnarounds.
const WriteEfficiency = 0.78

// SustainedReadBandwidth returns the maximum read bandwidth of a controller
// with this configuration after command overheads. A degraded channel
// (LatencyFactor > 1) delivers proportionally less.
func (c Config) SustainedReadBandwidth() units.Bandwidth {
	return units.Bandwidth(float64(c.PeakBandwidth()) * ReadEfficiency / c.latencyFactor())
}

// SustainedWriteBandwidth returns the bus bandwidth available to a
// streaming-write mixture (RFO reads + writebacks share it).
func (c Config) SustainedWriteBandwidth() units.Bandwidth {
	return units.Bandwidth(float64(c.PeakBandwidth()) * WriteEfficiency / c.latencyFactor())
}

// SustainedReadBandwidth returns the maximum read bandwidth of the
// controller after command overheads.
func (c *Controller) SustainedReadBandwidth() units.Bandwidth {
	return c.cfg.SustainedReadBandwidth()
}

// SustainedWriteBandwidth returns the bus bandwidth available to a
// streaming-write mixture (RFO reads + writebacks share it).
func (c *Controller) SustainedWriteBandwidth() units.Bandwidth {
	return c.cfg.SustainedWriteBandwidth()
}

// RecordRead counts a serviced line read.
func (c *Controller) RecordRead() { c.reads++ }

// RecordWrite counts a serviced line write (writeback or directory update).
func (c *Controller) RecordWrite() { c.writes++ }

// Stats returns the serviced read and write line counts.
func (c *Controller) Stats() (reads, writes uint64) { return c.reads, c.writes }

// ResetStats zeroes the counters.
func (c *Controller) ResetStats() { c.reads, c.writes = 0, 0 }

// RestoreStats sets the read/write counters, reinstalling a machine
// snapshot's traffic.
func (c *Controller) RestoreStats(reads, writes uint64) { c.reads, c.writes = reads, writes }
