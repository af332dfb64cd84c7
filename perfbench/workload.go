package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"time"

	webreason "repro"
	"repro/internal/lubm"
)

// spec is one workload: the data it generates, the strategy it serves with,
// and the traffic it offers.
type spec struct {
	name string
	// strategy is the serving strategy ("saturation" or "reformulation").
	strategy     string
	univs, depts int
	// rate is the offered load in operations per second (Poisson arrivals).
	rate float64
	// writeShare is the share of operations that write; the rest read.
	writeShare float64
	// durable serves from a data directory (see openDurable) with an
	// in-process follower, and writes with InsertDurable/DeleteDurable.
	durable bool
	// checkpointRecords is the DB's CheckpointRecords setting (durable only).
	checkpointRecords int
	// batch builds write batch b's triples and the ASK probe that holds
	// exactly while the batch is live.
	batch func(b int) (ts []webreason.Triple, probe string)
	// probeIsRead repeats each probe once the write shows and counts the
	// repeat's latency as the workload's read sample, for a workload that
	// sends no other reads.
	probeIsRead bool
	// coined reports a term the workload's writes coined; reads of a
	// workload whose writes change answers are checked on the other rows.
	coined func(webreason.Term) bool
}

// batchLag is how many batches later a batch is retracted: each write
// operation alternately inserts a fresh batch and deletes the batch
// inserted batchLag batches before it, so the live data stays bounded.
const batchLag = 4

// scans are the indexes (into lubm.Queries) of the queries whose answers
// grow with the data: Q2, Q6, Q8, Q9 and Q14. The other nine are selective.
var scans = map[int]bool{1: true, 5: true, 7: true, 8: true, 13: true}

// scanShare is the share of reads that go to the five scans.
const scanShare = 0.05

const (
	benchNS  = "http://bench.example.org/"
	coinPath = "univ0/dept0/bench"
)

var specs = []*spec{
	{
		name:     "lubm-read",
		strategy: "saturation",
		univs:    4, depts: 15,
		rate:       600,
		writeShare: 0.05,
		batch:      tagBatch,
	},
	{
		name:     "durable-write",
		strategy: "saturation",
		univs:    1, depts: 6,
		rate:              60,
		writeShare:        1,
		durable:           true,
		checkpointRecords: 250,
		batch:             gradBatch,
		probeIsRead:       true,
	},
	{
		name:     "reform-mixed",
		strategy: "reformulation",
		univs:    1, depts: 6,
		rate:       400,
		writeShare: 0.2,
		batch:      mixedBatch,
		coined:     isCoined,
	},
}

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// tagBatch is lubm-read's write: four triples over a predicate outside the
// ontology, with fresh subjects and literals. It coins terms and publishes
// a snapshot but entails nothing and changes no LUBM answer.
func tagBatch(b int) ([]webreason.Triple, string) {
	tag := webreason.NewIRI(benchNS + "tag")
	var ts []webreason.Triple
	for j := 0; j < 4; j++ {
		s := webreason.NewIRI(fmt.Sprintf("%sitem/%d/%d", benchNS, b, j))
		ts = append(ts, webreason.T(s, tag, webreason.NewLiteral(fmt.Sprintf("v%d.%d", b, j))))
	}
	return ts, fmt.Sprintf("ASK { <%s> <%s> ?o }", ts[0].S.Value, tag.Value)
}

// gradBatch is a rule-firing batch: a new graduate student with type,
// memberOf, takesCourse and advisor triples, in a department chosen by the
// batch number. Subclass and domain/range rules derive Student and Person;
// the probe asks for the entailed Person type.
func gradBatch(b int) ([]webreason.Triple, string) {
	d := b % 6
	g := lubm.Entity(fmt.Sprintf("univ0/dept%d/benchGrad%d", d, b))
	ts := []webreason.Triple{
		webreason.T(g, webreason.Type, lubm.Class("GraduateStudent")),
		webreason.T(g, lubm.Prop("memberOf"), lubm.Entity(fmt.Sprintf("univ0/dept%d", d))),
		webreason.T(g, lubm.Prop("takesCourse"), lubm.Entity(fmt.Sprintf("univ0/dept%d/course%d", d, b%20))),
		webreason.T(g, lubm.Prop("advisor"), lubm.Entity(fmt.Sprintf("univ0/dept%d/fullProf%d", d, b%6))),
	}
	return ts, personProbe(g)
}

// mixedBatch is reform-mixed's write: a new student of univ0/dept0 that
// changes the answers of Q1, Q2, Q5, Q6, Q8, Q9 and Q10. One batch in 100
// instead adds a schema triple — alternately a new subclass of Student and
// a new subproperty of memberOf — and an instance whose probed consequence
// follows only through it, so a read served from a plan that missed the
// schema change fails its probe.
func mixedBatch(b int) ([]webreason.Triple, string) {
	dept := lubm.Entity("univ0/dept0")
	s := lubm.Entity(fmt.Sprintf("%s%d", coinPath, b))
	switch {
	case b%200 == 50:
		c := lubm.Class(fmt.Sprintf("BenchStudent%d", b))
		return []webreason.Triple{
			webreason.T(c, webreason.SubClassOf, lubm.Class("Student")),
			webreason.T(s, webreason.Type, c),
		}, personProbe(s)
	case b%200 == 150:
		p := lubm.Prop(fmt.Sprintf("benchMemberOf%d", b))
		return []webreason.Triple{
			webreason.T(p, webreason.SubPropertyOf, lubm.Prop("memberOf")),
			webreason.T(s, p, dept),
		}, fmt.Sprintf("ASK { <%s> <%s> <%s> }", s.Value, lubm.Prop("memberOf").Value, dept.Value)
	}
	return []webreason.Triple{
		webreason.T(s, webreason.Type, lubm.Class("GraduateStudent")),
		webreason.T(s, lubm.Prop("memberOf"), dept),
		webreason.T(s, lubm.Prop("takesCourse"), lubm.Entity(fmt.Sprintf("univ0/dept0/course%d", b%20))),
		webreason.T(s, lubm.Prop("emailAddress"), webreason.NewLiteral(fmt.Sprintf("bench%d@dept0.univ0.edu", b))),
	}, personProbe(s)
}

// personProbe asks for an entailed triple: the subject is a Person.
func personProbe(s webreason.Term) string {
	return fmt.Sprintf("ASK { <%s> a <%s> }", s.Value, lubm.Class("Person").Value)
}

// isCoined reports a term reform-mixed's writes introduced.
func isCoined(t webreason.Term) bool {
	return strings.HasPrefix(t.Value, lubm.DataNS+coinPath) ||
		strings.HasPrefix(t.Value, lubm.NS+"Bench") ||
		strings.HasPrefix(t.Value, lubm.NS+"benchMemberOf")
}

// canonicalTexts returns the SPARQL texts of Q1..Q14, whose constants name
// univ0 and its first department.
func canonicalTexts() []string {
	var texts []string
	for _, q := range lubm.Queries() {
		texts = append(texts, q.Text)
	}
	return texts
}

// keepRow returns the filter answers of this workload are checked through:
// nil (every row) unless its writes coin terms that show in answers, in
// which case only the rows free of coined terms are kept.
func (sp *spec) keepRow() func([]webreason.Term) bool {
	if sp.coined == nil {
		return nil
	}
	return func(row []webreason.Term) bool {
		for _, t := range row {
			if sp.coined(t) {
				return false
			}
		}
		return true
	}
}

// opKind is what one scheduled operation does.
type opKind uint8

const (
	opPrepared opKind = iota // ServerPrepared.Answer of a canonical query
	opText                   // ParseQuery + Server.Query of a generated text
	opInsert                 // write a fresh batch, then probe for it
	opDelete                 // retract an earlier batch, then probe it is gone
)

// op is one scheduled operation.
type op struct {
	// at is the intended send time, as an offset from the window start.
	at   time.Duration
	kind opKind
	// q indexes the canonical queries (reads); text indexes inputs.texts.
	q, text int
	// batch is the write batch (writes).
	batch int
}

// batch is one write batch and the probe that observes it.
type batch struct {
	ts    []webreason.Triple
	probe *webreason.Query
}

// inputs is everything the program is sent, generated from the seed before
// the run: the schedule, the text-read sources and the write batches.
type inputs struct {
	canon   []string // canonical texts of Q1..Q14
	ops     []op
	texts   []string
	batches []batch
}

// generate builds a workload's inputs for a window of the given length:
// rate × window operations at uniformly random times, which is a Poisson
// arrival process conditioned on its count, so the offered load does not
// vary from seed to seed. The same seed gives the same inputs.
func generate(sp *spec, seed int64, window time.Duration) (*inputs, error) {
	in := &inputs{canon: canonicalTexts()}
	r := rand.New(rand.NewSource(seed))
	consts := newConstants(sp, r)
	textIdx := map[string]int{}
	writes, nextBatch := 0, 0
	times := make([]time.Duration, int(math.Round(sp.rate*window.Seconds())))
	for i := range times {
		times[i] = time.Duration(r.Int63n(int64(window)))
	}
	slices.Sort(times)
	for _, at := range times {
		o := op{at: at}
		if r.Float64() < sp.writeShare {
			if writes%2 == 1 && nextBatch > batchLag {
				o.kind, o.batch = opDelete, nextBatch-1-batchLag
			} else {
				o.kind, o.batch = opInsert, nextBatch
				nextBatch++
			}
			writes++
		} else {
			o.q = pickQuery(r)
			if r.Intn(2) == 0 {
				o.kind = opPrepared
			} else {
				o.kind = opText
				text := consts.instantiate(in.canon[o.q])
				i, ok := textIdx[text]
				if !ok {
					i = len(in.texts)
					textIdx[text] = i
					in.texts = append(in.texts, text)
				}
				o.text = i
			}
		}
		in.ops = append(in.ops, o)
	}
	for b := 0; b < nextBatch; b++ {
		ts, probe := sp.batch(b)
		q, err := webreason.ParseQuery(probe)
		if err != nil {
			return nil, fmt.Errorf("probe of batch %d: %w", b, err)
		}
		in.batches = append(in.batches, batch{ts: ts, probe: q})
	}
	return in, nil
}

// pickQuery draws a query index: the scans share scanShare of the reads,
// the selective queries the rest, uniformly within each group.
func pickQuery(r *rand.Rand) int {
	var group []int
	want := r.Float64() < scanShare
	for i := 0; i < 14; i++ {
		if scans[i] == want {
			group = append(group, i)
		}
	}
	return group[r.Intn(len(group))]
}

// constants draws the IRIs text reads substitute for the canonical
// queries' univ0 / univ0/dept0 / course0 / fullProf0 constants. Each kind
// is drawn Zipf-skewed, so text repeats only partly. The popularity order
// is a permutation of the generated entities fixed like the graph, so runs
// with different seeds draw from the same distribution.
type constants struct {
	univ, dept, course, prof *skewed
}

type skewed struct {
	z    *rand.Zipf
	vals []string
}

func newSkewed(r *rand.Rand, vals []string) *skewed {
	rank := rand.New(rand.NewSource(graphSeed))
	rank.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	return &skewed{z: rand.NewZipf(r, 1.1, 1, uint64(len(vals)-1)), vals: vals}
}

func (s *skewed) draw() string { return s.vals[s.z.Uint64()] }

func newConstants(sp *spec, r *rand.Rand) *constants {
	var univ, dept, course, prof []string
	for u := 0; u < sp.univs; u++ {
		univ = append(univ, fmt.Sprintf("univ%d", u))
		for d := 0; d < sp.depts; d++ {
			dept = append(dept, fmt.Sprintf("univ%d/dept%d", u, d))
			// Every department has at least 24 courses and 6 full
			// professors at the generator's default faculty size.
			for c := 0; c < 24; c++ {
				course = append(course, fmt.Sprintf("univ%d/dept%d/course%d", u, d, c))
			}
			for p := 0; p < 6; p++ {
				prof = append(prof, fmt.Sprintf("univ%d/dept%d/fullProf%d", u, d, p))
			}
		}
	}
	return &constants{
		univ: newSkewed(r, univ), dept: newSkewed(r, dept),
		course: newSkewed(r, course), prof: newSkewed(r, prof),
	}
}

// instantiate replaces the canonical constant of a query text (each query
// names at most one kind) with a drawn one.
func (c *constants) instantiate(text string) string {
	ent := func(p string) string { return "<" + lubm.DataNS + p + ">" }
	switch {
	case strings.Contains(text, ent("univ0/dept0/course0")):
		return strings.ReplaceAll(text, ent("univ0/dept0/course0"), ent(c.course.draw()))
	case strings.Contains(text, ent("univ0/dept0/fullProf0")):
		return strings.ReplaceAll(text, ent("univ0/dept0/fullProf0"), ent(c.prof.draw()))
	case strings.Contains(text, ent("univ0/dept0")):
		return strings.ReplaceAll(text, ent("univ0/dept0"), ent(c.dept.draw()))
	case strings.Contains(text, ent("univ0")):
		return strings.ReplaceAll(text, ent("univ0"), ent(c.univ.draw()))
	}
	return text
}
