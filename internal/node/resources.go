package node

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"corbalc/internal/cdr"
	"corbalc/internal/orb"
	"corbalc/internal/xmldesc"
)

// Capability classifies a node's hardware class (paper requirement 8:
// "the resource utilization logic must be intelligent enough to
// accommodate tiny devices such as PDAs as well as high-end servers").
type Capability string

// Capability classes.
const (
	CapServer      Capability = "server"
	CapWorkstation Capability = "workstation"
	CapPDA         Capability = "pda"
)

// Profile is a node's static hardware description.
type Profile struct {
	OS            string
	Arch          string
	ORB           string
	Capability    Capability
	CPUCores      float64 // schedulable CPU capacity
	MemoryMB      int
	BandwidthMbps float64
	// Fixed marks nodes that never accept component installation
	// (thin clients use every component remotely).
	Fixed bool
}

// Predefined profiles for the three capability classes.
func ServerProfile() Profile {
	return Profile{OS: "linux", Arch: "amd64", ORB: "corbalc", Capability: CapServer,
		CPUCores: 16, MemoryMB: 32768, BandwidthMbps: 1000}
}

func WorkstationProfile() Profile {
	return Profile{OS: "linux", Arch: "amd64", ORB: "corbalc", Capability: CapWorkstation,
		CPUCores: 4, MemoryMB: 4096, BandwidthMbps: 100}
}

func PDAProfile() Profile {
	return Profile{OS: "palmos", Arch: "arm", ORB: "corbalc", Capability: CapPDA,
		CPUCores: 0.25, MemoryMB: 16, BandwidthMbps: 1, Fixed: true}
}

// Report is the reflective snapshot of a node's resources: the static
// characteristics plus the dynamic utilisation the Resource Manager
// interface exposes (Fig. 1). It is the unit of soft-consistency
// updates flowing to Meta-Resource Managers.
type Report struct {
	Node          string
	OS            string
	Arch          string
	ORB           string
	Capability    Capability
	CPUCores      float64
	CPUUsed       float64
	MemoryMB      uint32
	MemoryUsedMB  uint32
	BandwidthMbps float64
	Instances     uint32
	// Digest is the node's reflection epoch: it advances whenever the
	// installed-component set or the instance population changes, so a
	// registry can cheaply detect staleness.
	Digest uint64
	// OffersEpoch advances when the installed-component set (and hence
	// the offer list) changes — but not on instance churn, unlike Digest.
	// Delta-gossip updates ship the offer list only when a destination's
	// last-seen OffersEpoch is stale.
	OffersEpoch uint64
	// UnixMillis is the local timestamp of the snapshot.
	UnixMillis int64
}

// CPUFree returns the unreserved CPU capacity.
func (r *Report) CPUFree() float64 { return r.CPUCores - r.CPUUsed }

// LoadFraction is used CPU as a fraction of capacity, in [0,1].
func (r *Report) LoadFraction() float64 {
	if r.CPUCores <= 0 {
		return 1
	}
	f := r.CPUUsed / r.CPUCores
	if f > 1 {
		return 1
	}
	return f
}

// Marshal encodes the report.
func (r *Report) Marshal(e *cdr.Encoder) {
	e.WriteString(r.Node)
	e.WriteString(r.OS)
	e.WriteString(r.Arch)
	e.WriteString(r.ORB)
	e.WriteString(string(r.Capability))
	e.WriteDouble(r.CPUCores)
	e.WriteDouble(r.CPUUsed)
	e.WriteULong(r.MemoryMB)
	e.WriteULong(r.MemoryUsedMB)
	e.WriteDouble(r.BandwidthMbps)
	e.WriteULong(r.Instances)
	e.WriteULongLong(r.Digest)
	e.WriteULongLong(r.OffersEpoch)
	e.WriteLongLong(r.UnixMillis)
}

// UnmarshalReport decodes a report.
func UnmarshalReport(d *cdr.Decoder) (*Report, error) {
	r := &Report{}
	var err error
	read := func(f func() error) {
		if err == nil {
			err = f()
		}
	}
	read(func() error { var e error; r.Node, e = d.ReadString(); return e })
	read(func() error { var e error; r.OS, e = d.ReadString(); return e })
	read(func() error { var e error; r.Arch, e = d.ReadString(); return e })
	read(func() error { var e error; r.ORB, e = d.ReadString(); return e })
	read(func() error {
		s, e := d.ReadString()
		r.Capability = Capability(s)
		return e
	})
	read(func() error { var e error; r.CPUCores, e = d.ReadDouble(); return e })
	read(func() error { var e error; r.CPUUsed, e = d.ReadDouble(); return e })
	read(func() error { var e error; r.MemoryMB, e = d.ReadULong(); return e })
	read(func() error { var e error; r.MemoryUsedMB, e = d.ReadULong(); return e })
	read(func() error { var e error; r.BandwidthMbps, e = d.ReadDouble(); return e })
	read(func() error { var e error; r.Instances, e = d.ReadULong(); return e })
	read(func() error { var e error; r.Digest, e = d.ReadULongLong(); return e })
	read(func() error { var e error; r.OffersEpoch, e = d.ReadULongLong(); return e })
	read(func() error { var e error; r.UnixMillis, e = d.ReadLongLong(); return e })
	if err != nil {
		return nil, err
	}
	return r, nil
}

// ErrResources reports a QoS admission failure.
var ErrResources = errors.New("node: insufficient resources")

// Resources is the node's Resource Manager: it reflects the hardware's
// static characteristics, tracks dynamic usage through QoS reservations,
// and answers admission requests (Fig. 1; §2.4.2 "the Resource Manager
// collaborates with the Container in deciding initial placement ...").
type Resources struct {
	profile Profile

	mu        sync.Mutex
	cpuUsed   float64
	memUsedMB int
	instances int
	// extraCPU is synthetic background load (SetBackgroundLoad).
	extraCPU float64
}

// NewResources builds a resource manager for a profile.
func NewResources(p Profile) *Resources {
	return &Resources{profile: p}
}

// Profile returns the static description.
func (rm *Resources) Profile() Profile { return rm.profile }

// Admit reserves a QoS envelope, returning a release function.
func (rm *Resources) Admit(q xmldesc.QoS) (func(), error) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	cpu := q.CPUMin
	mem := q.MemoryMinMB
	if rm.cpuUsed+rm.extraCPU+cpu > rm.profile.CPUCores {
		return nil, fmt.Errorf("%w: cpu need %.2f, free %.2f", ErrResources,
			cpu, rm.profile.CPUCores-rm.cpuUsed-rm.extraCPU)
	}
	if rm.memUsedMB+mem > rm.profile.MemoryMB {
		return nil, fmt.Errorf("%w: memory need %d MB, free %d MB", ErrResources,
			mem, rm.profile.MemoryMB-rm.memUsedMB)
	}
	if q.BandwidthMin > rm.profile.BandwidthMbps {
		return nil, fmt.Errorf("%w: bandwidth need %.1f Mbps, link %.1f Mbps", ErrResources,
			q.BandwidthMin, rm.profile.BandwidthMbps)
	}
	rm.cpuUsed += cpu
	rm.memUsedMB += mem
	rm.instances++
	var once sync.Once
	return func() {
		once.Do(func() {
			rm.mu.Lock()
			rm.cpuUsed -= cpu
			rm.memUsedMB -= mem
			rm.instances--
			rm.mu.Unlock()
		})
	}, nil
}

// CanHost reports whether the envelope would currently be admitted,
// without reserving.
func (rm *Resources) CanHost(q xmldesc.QoS) bool {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	return rm.cpuUsed+rm.extraCPU+q.CPUMin <= rm.profile.CPUCores &&
		rm.memUsedMB+q.MemoryMinMB <= rm.profile.MemoryMB &&
		q.BandwidthMin <= rm.profile.BandwidthMbps
}

// SetBackgroundLoad injects synthetic CPU load (tests use it to skew
// nodes).
func (rm *Resources) SetBackgroundLoad(cpu float64) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	rm.extraCPU = cpu
}

// Snapshot produces the dynamic report (node name and digest are filled
// by the Node).
func (rm *Resources) Snapshot() Report {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	return Report{
		OS:            rm.profile.OS,
		Arch:          rm.profile.Arch,
		ORB:           rm.profile.ORB,
		Capability:    rm.profile.Capability,
		CPUCores:      rm.profile.CPUCores,
		CPUUsed:       rm.cpuUsed + rm.extraCPU,
		MemoryMB:      uint32(rm.profile.MemoryMB),
		MemoryUsedMB:  uint32(rm.memUsedMB),
		BandwidthMbps: rm.profile.BandwidthMbps,
		Instances:     uint32(rm.instances),
		UnixMillis:    time.Now().UnixMilli(),
	}
}

// ResourceManagerRepoID is the CORBA interface ID of the servant.
const ResourceManagerRepoID = "IDL:corbalc/ResourceManager:1.0"

// resourceServant exposes the Resource Manager over CORBA.
type resourceServant struct{ n *Node }

func (s *resourceServant) RepositoryID() string { return ResourceManagerRepoID }

func (s *resourceServant) InvokeContext(_ context.Context, op string, args *cdr.Decoder, reply *cdr.Encoder) error {
	switch op {
	case "report":
		r := s.n.Report()
		r.Marshal(reply)
		return nil
	case "can_host":
		// (cpu_min double, mem_min ulong, bw_min double) -> boolean
		cpu, err := args.ReadDouble()
		if err != nil {
			return orb.Marshal()
		}
		mem, err := args.ReadULong()
		if err != nil {
			return orb.Marshal()
		}
		bw, err := args.ReadDouble()
		if err != nil {
			return orb.Marshal()
		}
		reply.WriteBool(s.n.res.CanHost(xmldesc.QoS{CPUMin: cpu, MemoryMinMB: int(mem), BandwidthMin: bw}))
		return nil
	}
	return orb.BadOperation()
}
