package xmldesc

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

const softpkgXML = `<?xml version="1.0"?>
<softpkg name="streamdecoder" version="1.2.0">
  <title>Stream Decoder</title>
  <abstract>Decodes MPEG-like media streams.</abstract>
  <author><company>UM DiTEC</company><webpage>http://example.org</webpage></author>
  <license href="http://example.org/license" payperuse="true">per-seat</license>
  <dependency type="ORB"><name>corbalc</name><version>&gt;=1.0</version></dependency>
  <dependency type="Component"><name>codec-core</name><version>2.*</version></dependency>
  <descriptor name="componenttype.xml"/>
  <idl name="idl/decoder.idl"/>
  <implementation id="linux-amd64">
    <os>linux</os><processor>amd64</processor><orb>corbalc</orb>
    <code type="GoRegistered">
      <fileinarchive name="bin/streamdecoder-linux-amd64.bin"/>
      <entrypoint>corbalc/examples/streamdecoder.New</entrypoint>
    </code>
  </implementation>
  <implementation id="anyplatform">
    <os>any</os><processor>any</processor>
    <code type="Script"><fileinarchive name="bin/streamdecoder.tcl"/></code>
  </implementation>
  <mobility>movable</mobility>
  <replication>stateless</replication>
  <aggregation splittable="true" gather="concat"/>
</softpkg>`

const componentTypeXML = `<?xml version="1.0"?>
<componenttype name="StreamDecoder" repoid="IDL:media/StreamDecoder:1.0">
  <ports>
    <port kind="provides" name="decode" repoid="IDL:media/Decoder:1.0"/>
    <port kind="uses" name="display" repoid="IDL:corbalc/Display:1.0" version="&gt;=1.0"/>
    <port kind="uses" name="stats" repoid="IDL:corbalc/Stats:1.0" optional="true"/>
    <port kind="emits" name="frame_ready" repoid="IDL:media/FrameReady:1.0"/>
    <port kind="consumes" name="quality_hint" repoid="IDL:media/QualityHint:1.0"/>
  </ports>
  <factory lifecycle="session" maxinstances="8"/>
  <qos>
    <cpu><min>0.05</min><max>0.9</max></cpu>
    <memory><min>16</min><max>256</max></memory>
    <bandwidth><min>2.5</min></bandwidth>
  </qos>
  <framework>
    <service name="events"/>
    <service name="migration"/>
  </framework>
</componenttype>`

func TestParseSoftPkg(t *testing.T) {
	sp, err := ParseSoftPkg(strings.NewReader(softpkgXML))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Name != "streamdecoder" || sp.Version != "1.2.0" {
		t.Fatalf("identity = %s/%s", sp.Name, sp.Version)
	}
	if v := sp.ParsedVersion(); v.Major != 1 || v.Minor != 2 {
		t.Fatalf("parsed version = %v", v)
	}
	if !sp.License.PayPerUse {
		t.Error("pay-per-use flag lost")
	}
	if deps := sp.Dependencies; len(deps) != 2 || deps[1].Type != "Component" ||
		deps[1].Name != "codec-core" || deps[1].Version != "2.*" {
		t.Fatalf("dependencies = %+v", deps)
	}
	if !sp.Movable() {
		t.Error("movable")
	}
	if !sp.Aggregation.Splittable || sp.Aggregation.Gather != "concat" {
		t.Errorf("aggregation = %+v", sp.Aggregation)
	}
	if sp.Descriptor.Name != "componenttype.xml" {
		t.Errorf("descriptor ref = %q", sp.Descriptor.Name)
	}
	if len(sp.IDLFiles) != 1 || sp.IDLFiles[0].Name != "idl/decoder.idl" {
		t.Errorf("idl files = %+v", sp.IDLFiles)
	}
}

func TestFindImplementation(t *testing.T) {
	sp, err := ParseSoftPkg(strings.NewReader(softpkgXML))
	if err != nil {
		t.Fatal(err)
	}
	im, ok := sp.FindImplementation("linux", "amd64", "corbalc")
	if !ok || im.ID != "linux-amd64" {
		t.Fatalf("find = %+v, %v", im, ok)
	}
	// A windows host falls through to the any-platform script.
	im, ok = sp.FindImplementation("windows", "x86", "corbalc")
	if !ok || im.ID != "anyplatform" {
		t.Fatalf("fallback = %+v, %v", im, ok)
	}
	if im.Code.Type != "Script" {
		t.Errorf("code type = %q", im.Code.Type)
	}
}

func TestSoftPkgRoundTrip(t *testing.T) {
	sp, err := ParseSoftPkg(strings.NewReader(softpkgXML))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sp.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	sp2, err := ParseSoftPkg(&buf)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, buf.String())
	}
	if sp2.Name != sp.Name || len(sp2.Implementations) != len(sp.Implementations) ||
		sp2.Mobility != sp.Mobility || len(sp2.Dependencies) != len(sp.Dependencies) {
		t.Fatalf("round trip mismatch: %+v", sp2)
	}
}

func TestSoftPkgValidation(t *testing.T) {
	base := func() *SoftPkg {
		sp, err := ParseSoftPkg(strings.NewReader(softpkgXML))
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	cases := map[string]func(*SoftPkg){
		"empty name":      func(sp *SoftPkg) { sp.Name = "" },
		"name with slash": func(sp *SoftPkg) { sp.Name = "a/b" },
		"bad version":     func(sp *SoftPkg) { sp.Version = "one" },
		"no impls":        func(sp *SoftPkg) { sp.Implementations = nil },
		"dup impl id":     func(sp *SoftPkg) { sp.Implementations[1].ID = sp.Implementations[0].ID },
		"impl no id":      func(sp *SoftPkg) { sp.Implementations[0].ID = "" },
		"impl no code":    func(sp *SoftPkg) { sp.Implementations[0].Code.File.Name = "" },
		"dep empty name":  func(sp *SoftPkg) { sp.Dependencies[0].Name = "" },
		"dep bad version": func(sp *SoftPkg) { sp.Dependencies[0].Version = ">>=1" },
		"bad mobility":    func(sp *SoftPkg) { sp.Mobility = "teleporting" },
		"bad replication": func(sp *SoftPkg) { sp.Replication = "psychic" },
	}
	for name, mutate := range cases {
		sp := base()
		mutate(sp)
		if err := sp.Validate(); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: err = %v", name, err)
		}
	}
}

func TestParseComponentType(t *testing.T) {
	ct, err := ParseComponentType(strings.NewReader(componentTypeXML))
	if err != nil {
		t.Fatal(err)
	}
	if ct.Name != "StreamDecoder" || ct.RepoID != "IDL:media/StreamDecoder:1.0" {
		t.Fatalf("identity = %s %s", ct.Name, ct.RepoID)
	}
	if got := len(ct.PortsOf(PortUses)); got != 2 {
		t.Fatalf("uses ports = %d", got)
	}
	var stats *Port
	for i := range ct.Ports {
		if ct.Ports[i].Name == "stats" {
			stats = &ct.Ports[i]
		}
	}
	if stats == nil || !stats.Optional {
		t.Fatalf("stats port = %+v", stats)
	}
	if ct.Factory.Lifecycle != "session" || ct.Factory.MaxInstances != 8 {
		t.Fatalf("factory = %+v", ct.Factory)
	}
	if ct.QoS.CPUMax != 0.9 || ct.QoS.MemoryMinMB != 16 || ct.QoS.BandwidthMin != 2.5 {
		t.Fatalf("qos = %+v", ct.QoS)
	}
	if len(ct.Framework) != 2 || ct.Framework[1].Name != "migration" {
		t.Errorf("framework services = %+v", ct.Framework)
	}
}

func TestComponentTypeRoundTrip(t *testing.T) {
	ct, err := ParseComponentType(strings.NewReader(componentTypeXML))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ct.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	ct2, err := ParseComponentType(&buf)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, buf.String())
	}
	if len(ct2.Ports) != len(ct.Ports) || ct2.QoS != ct.QoS || ct2.Factory != ct.Factory {
		t.Fatalf("round trip mismatch: %+v", ct2)
	}
}

func TestComponentTypeValidation(t *testing.T) {
	base := func() *ComponentType {
		ct, err := ParseComponentType(strings.NewReader(componentTypeXML))
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}
	cases := map[string]func(*ComponentType){
		"empty name":         func(ct *ComponentType) { ct.Name = "" },
		"bad repoid":         func(ct *ComponentType) { ct.RepoID = "not-an-id" },
		"bad port kind":      func(ct *ComponentType) { ct.Ports[0].Kind = "gives" },
		"unnamed port":       func(ct *ComponentType) { ct.Ports[0].Name = "" },
		"duplicate port":     func(ct *ComponentType) { ct.Ports[1].Name = ct.Ports[0].Name },
		"port bad repoid":    func(ct *ComponentType) { ct.Ports[0].RepoID = "x" },
		"optional provides":  func(ct *ComponentType) { ct.Ports[0].Optional = true },
		"port bad version":   func(ct *ComponentType) { ct.Ports[1].Version = "vvv" },
		"bad lifecycle":      func(ct *ComponentType) { ct.Factory.Lifecycle = "eternal" },
		"negative instances": func(ct *ComponentType) { ct.Factory.MaxInstances = -1 },
		"negative qos":       func(ct *ComponentType) { ct.QoS.CPUMin = -0.1 },
		"cpu min above max":  func(ct *ComponentType) { ct.QoS.CPUMin = 0.95 },
		"mem min above max":  func(ct *ComponentType) { ct.QoS.MemoryMinMB = 512 },
	}
	for name, mutate := range cases {
		ct := base()
		mutate(ct)
		if err := ct.Validate(); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: err = %v", name, err)
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := ParseSoftPkg(strings.NewReader("<not-xml")); err == nil {
		t.Error("softpkg garbage accepted")
	}
	if _, err := ParseComponentType(strings.NewReader("{json}")); err == nil {
		t.Error("componenttype garbage accepted")
	}
	// Wrong root element.
	if _, err := ParseSoftPkg(strings.NewReader("<othertag/>")); err == nil {
		t.Error("wrong root accepted")
	}
}
