package daemon

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"sync"

	"repro/internal/isa"
	"repro/internal/stats"
)

// The client's half of the warm path (DESIGN.md §9.5): Client.Run writes
// its request with encodeBatch and reads the response with readEvents.
// Each is byte for byte encoding/json on the shapes the client and the
// daemon produce, and hands everything else to encoding/json, as
// splitBatch does on the server.

// encodeBatch returns json.Marshal(req), appended field by field when
// every value in req is of a shape the appender writes exactly.
func encodeBatch(req *BatchRequest) ([]byte, error) {
	a := appender{b: make([]byte, 0, 2048*len(req.Jobs)), ok: true}
	if a.batch(req); a.ok {
		return a.b, nil
	}
	return json.Marshal(req)
}

// appender writes JSON as json.Marshal does for the request types. Each
// method writes a literal prefix (punctuation and key), then one value. It
// clears ok instead of writing a value it cannot write exactly: a NaN or
// infinite float (Marshal fails), a string holding a byte Marshal escapes
// or anything outside printable ASCII.
type appender struct {
	b  []byte
	ok bool
}

func (a *appender) raw(s string) { a.b = append(a.b, s...) }

func (a *appender) int(pre string, v int64) { a.b = strconv.AppendInt(append(a.b, pre...), v, 10) }

func (a *appender) uint(pre string, v uint64) { a.b = strconv.AppendUint(append(a.b, pre...), v, 10) }

func (a *appender) bool(pre string, v bool) { a.b = strconv.AppendBool(append(a.b, pre...), v) }

func (a *appender) str(pre, s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			a.ok = false
			return
		}
	}
	a.b = append(append(append(append(a.b, pre...), '"'), s...), '"')
}

// float is encoding/json's float64 format: 'f', or 'e' outside
// [1e-6, 1e21) with a one-digit negative exponent unpadded.
func (a *appender) float(pre string, f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		a.ok = false
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	a.b = strconv.AppendFloat(append(a.b, pre...), f, format, -1, 64)
	if n := len(a.b); format == 'e' && n >= 4 && a.b[n-4] == 'e' && a.b[n-3] == '-' && a.b[n-2] == '0' {
		a.b[n-2] = a.b[n-1]
		a.b = a.b[:n-1]
	}
}

// list writes null for a nil slice, else [elem(0),…,elem(n-1)].
func (a *appender) list(n int, isNil bool, elem func(i int)) {
	if isNil {
		a.raw("null")
		return
	}
	a.raw("[")
	for i := 0; i < n; i++ {
		if i > 0 {
			a.raw(",")
		}
		elem(i)
	}
	a.raw("]")
}

func (a *appender) batch(req *BatchRequest) {
	a.raw(`{"jobs":`)
	a.list(len(req.Jobs), req.Jobs == nil, func(i int) { a.wireJob(&req.Jobs[i]) })
	a.raw("}")
}

func (a *appender) wireJob(wj *WireJob) {
	a.raw("{")
	if wj.Config != nil {
		cfg, err := json.Marshal(wj.Config)
		if err != nil {
			a.ok = false
			return
		}
		a.raw(`"config":`)
		a.b = append(append(a.b, cfg...), ',')
	}
	a.raw(`"launch":`)
	if l := wj.Launch; l == nil {
		a.raw("null")
	} else {
		a.raw(`{"Program":`)
		a.program(l.Program)
		a.int(`,"GridTBs":`, int64(l.GridTBs))
		a.int(`,"BlockThreads":`, int64(l.BlockThreads))
		a.int(`,"RegsPerThread":`, int64(l.RegsPerThread))
		a.int(`,"SharedMemPerTB":`, int64(l.SharedMemPerTB))
		a.uint(`,"Seed":`, l.Seed)
		a.raw("}")
	}
	if wj.Kernel != "" {
		a.str(`,"kernel":`, wj.Kernel)
	}
	a.str(`,"scheduler":`, wj.Scheduler)
	a.bool(`,"options":{"Timeline":`, wj.Options.Timeline)
	a.int(`,"SampleEvery":`, wj.Options.SampleEvery)
	a.int(`,"MaxCycles":`, wj.Options.MaxCycles)
	a.int(`,"StallWindow":`, wj.Options.StallWindow)
	a.raw("}}")
}

func (a *appender) program(p *isa.Program) {
	if p == nil {
		a.raw("null")
		return
	}
	a.str(`{"Name":`, p.Name)
	a.raw(`,"Code":`)
	a.list(len(p.Code), p.Code == nil, func(i int) { a.instr(&p.Code[i]) })
	a.raw(`,"Loops":`)
	a.list(len(p.Loops), p.Loops == nil, func(i int) {
		l := &p.Loops[i]
		a.int(`{"Min":`, int64(l.Min))
		a.int(`,"Max":`, int64(l.Max))
		a.uint(`,"Imb":`, uint64(l.Imb))
		a.raw("}")
	})
	a.raw("}")
}

func (a *appender) instr(in *isa.Instr) {
	a.uint(`{"Op":`, uint64(in.Op))
	a.uint(`,"Dst":`, uint64(in.Dst))
	a.raw(`,"Srcs":`)
	a.list(len(in.Srcs), false, func(i int) { a.uint("", uint64(in.Srcs[i])) })
	a.raw(`,"Mem":`)
	if m := in.Mem; m == nil {
		a.raw("null")
	} else {
		a.uint(`{"Pattern":`, uint64(m.Pattern))
		a.int(`,"Stride":`, int64(m.Stride))
		a.uint(`,"Region":`, m.Region)
		a.uint(`,"Space":`, uint64(m.Space))
		a.bool(`,"IterVaries":`, m.IterVaries)
		a.raw("}")
	}
	a.raw(`,"Branch":`)
	if br := in.Branch; br == nil {
		a.raw("null")
	} else {
		a.uint(`{"Kind":`, uint64(br.Kind))
		a.int(`,"N":`, int64(br.N))
		a.float(`,"P":`, br.P)
		a.int(`,"LoopID":`, int64(br.LoopID))
		a.int(`,"Target":`, int64(br.Target))
		a.int(`,"Reconv":`, int64(br.Reconv))
		a.raw("}")
	}
	a.raw("}")
}

// lineReader is a response reader of Client.Run, pooled with the slice
// that assembles lines longer than its buffer.
type lineReader struct {
	br   *bufio.Reader
	long []byte
}

var lineReaders = sync.Pool{New: func() any { return &lineReader{br: bufio.NewReader(nil)} }}

// maxPooledLine bounds the long-line slice a pooled reader keeps.
const maxPooledLine = 1 << 20

// readEvents calls handle with each event of a /v1/batch response, in
// stream order, and returns nil at the stream's end or the error it broke
// on. Each line is decoded by decodeEvent while it takes them; the first
// line it does not take (a shape it does not know, a line cut short, a
// read error) and every byte after it go to a json.Decoder, which sees
// exactly the bytes and error it would have seen reading the whole
// stream, so the stream ends as it did before this fast path.
func readEvents(body io.Reader, handle func(*Event)) error {
	lr := lineReaders.Get().(*lineReader)
	lr.br.Reset(body)
	defer func() {
		lr.br.Reset(nil)
		if cap(lr.long) <= maxPooledLine {
			lineReaders.Put(lr)
		}
	}()
	var dec *json.Decoder
	for dec == nil {
		line, err := lr.br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			lr.long = append(lr.long[:0], line...)
			for err == bufio.ErrBufferFull {
				line, err = lr.br.ReadSlice('\n')
				lr.long = append(lr.long, line...)
			}
			line = lr.long
		}
		if len(line) == 0 && err == io.EOF {
			return nil
		}
		ev := new(Event)
		if err == nil && decodeEvent(line[:len(line)-1], ev) {
			handle(ev)
			continue
		}
		var rest io.Reader = lr.br
		if err != nil {
			rest = errReader{err}
		}
		dec = json.NewDecoder(io.MultiReader(bytes.NewReader(line), rest))
	}
	for {
		var ev Event
		if err := dec.Decode(&ev); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		handle(&ev)
	}
}

// decodeEvent decodes one line of a /v1/batch response — a job event or
// the batch line, as the daemon's json.Encoder writes them — into the
// zero Event ev. It may only accept: when it reports true, json.Unmarshal
// of line into a zero Event succeeds with an equal Event (FuzzDecodeEvent).
// It takes one object of exactly the Event, JobResult and KernelResult
// keys, each at most once, in any order, with no whitespace; strings in
// printable ASCII without escapes; integers without fraction, exponent
// or leading zero, of at most 18 digits; true and false; an empty or
// non-empty results array, and null only for a result's Timeline,
// OrderTrace and Samples. Anything else is declined.
func decodeEvent(line []byte, ev *Event) bool {
	s := scanner{b: line}
	return s.object(func(key []byte) uint32 {
		switch string(key) {
		case "type":
			return s.str(&ev.Type, 1<<0)
		case "seq":
			return s.int(&ev.Seq, 1<<1)
		case "index":
			return s.int(&ev.Index, 1<<2)
		case "kernel":
			return s.str(&ev.Kernel, 1<<3)
		case "scheduler":
			return s.str(&ev.Scheduler, 1<<4)
		case "done":
			return s.int(&ev.Done, 1<<5)
		case "total":
			return s.int(&ev.Total, 1<<6)
		case "fromCache":
			return s.bool(&ev.FromCache, 1<<7)
		case "deduped":
			return s.bool(&ev.Deduped, 1<<8)
		case "cacheHits":
			return s.int(&ev.CacheHits, 1<<9)
		case "elapsedMs":
			return s.int64(&ev.ElapsedMS, 1<<10)
		case "etaMs":
			return s.int64(&ev.EtaMS, 1<<11)
		case "err":
			return s.str(&ev.Err, 1<<12)
		case "results":
			return s.results(&ev.Results, 1<<13)
		}
		return 0
	}) && s.i == len(line)
}

// scanner is decodeEvent's cursor. Each value method scans one value
// into its destination and returns the field's bit, or 0 to decline.
type scanner struct {
	b []byte
	i int
}

// lit consumes t if the input continues with it.
func (s *scanner) lit(t string) bool {
	if len(s.b)-s.i < len(t) || string(s.b[s.i:s.i+len(t)]) != t {
		return false
	}
	s.i += len(t)
	return true
}

// object scans {"key":value,…}; field scans the value of each key and
// returns the key's bit, 0 for an unknown key or a declined value. A
// repeated bit declines the object.
func (s *scanner) object(field func(key []byte) uint32) bool {
	if !s.lit("{") {
		return false
	}
	if s.lit("}") {
		return true
	}
	var seen uint32
	for {
		key, ok := s.plain()
		if !ok || !s.lit(":") {
			return false
		}
		bit := field(key)
		if bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		if s.lit("}") {
			return true
		}
		if !s.lit(",") {
			return false
		}
	}
}

// plain scans a string of printable ASCII without escapes and returns
// its bytes, aliasing the input.
func (s *scanner) plain() ([]byte, bool) {
	if !s.lit(`"`) {
		return nil, false
	}
	for j := s.i; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			v := s.b[s.i:j]
			s.i = j + 1
			return v, true
		case c < ' ' || c > '~' || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

func (s *scanner) str(dst *string, bit uint32) uint32 {
	v, ok := s.plain()
	if !ok {
		return 0
	}
	*dst = string(v)
	return bit
}

func (s *scanner) bool(dst *bool, bit uint32) uint32 {
	switch {
	case s.lit("true"):
		*dst = true
	case s.lit("false"):
		*dst = false
	default:
		return 0
	}
	return bit
}

func (s *scanner) null(bit uint32) uint32 {
	if !s.lit("null") {
		return 0
	}
	return bit
}

func (s *scanner) int64(dst *int64, bit uint32) uint32 {
	neg := s.lit("-")
	j, v := s.i, int64(0)
	for ; j < len(s.b) && s.b[j] >= '0' && s.b[j] <= '9'; j++ {
		if j-s.i < 18 {
			v = v*10 + int64(s.b[j]-'0')
		}
	}
	if n := j - s.i; n == 0 || n > 18 || n > 1 && s.b[s.i] == '0' {
		return 0
	}
	if s.i = j; neg {
		v = -v
	}
	*dst = v
	return bit
}

func (s *scanner) int(dst *int, bit uint32) uint32 {
	var v int64
	if s.int64(&v, bit) == 0 || int64(int(v)) != v {
		return 0
	}
	*dst = int(v)
	return bit
}

func (s *scanner) results(dst *[]JobResult, bit uint32) uint32 {
	if !s.lit("[") {
		return 0
	}
	rs := []JobResult{}
	for !s.lit("]") {
		if len(rs) > 0 && !s.lit(",") {
			return 0
		}
		rs = append(rs, JobResult{})
		jr := &rs[len(rs)-1]
		if !s.object(func(key []byte) uint32 {
			switch string(key) {
			case "result":
				jr.Result = new(stats.KernelResult)
				return s.kernelResult(jr.Result, 1<<0)
			case "err":
				return s.str(&jr.Err, 1<<1)
			}
			return 0
		}) {
			return 0
		}
	}
	*dst = rs
	return bit
}

func (s *scanner) kernelResult(r *stats.KernelResult, bit uint32) uint32 {
	if !s.object(func(key []byte) uint32 {
		switch string(key) {
		case "Kernel":
			return s.str(&r.Kernel, 1<<0)
		case "Scheduler":
			return s.str(&r.Scheduler, 1<<1)
		case "Cycles":
			return s.int64(&r.Cycles, 1<<2)
		case "WarpInstrs":
			return s.int64(&r.WarpInstrs, 1<<3)
		case "ThreadInstrs":
			return s.int64(&r.ThreadInstrs, 1<<4)
		case "TBCount":
			return s.int(&r.TBCount, 1<<5)
		case "Stalls":
			st := &r.Stalls
			return s.int64s(1<<6, []string{"Issued", "Idle", "Scoreboard", "Pipeline"},
				&st.Issued, &st.Idle, &st.Scoreboard, &st.Pipeline)
		case "Mem":
			m := &r.Mem
			return s.int64s(1<<7, []string{"L1Accesses", "L1Misses", "L2Accesses", "L2Misses", "DRAMReqs", "DRAMRowHits"},
				&m.L1Accesses, &m.L1Misses, &m.L2Accesses, &m.L2Misses, &m.DRAMReqs, &m.DRAMRowHits)
		case "Timeline":
			return s.null(1 << 8)
		case "OrderTrace":
			return s.null(1 << 9)
		case "WarpDisparitySum":
			return s.int64(&r.WarpDisparitySum, 1<<10)
		case "BarrierWaitSum":
			return s.int64(&r.BarrierWaitSum, 1<<11)
		case "BarrierEpisodes":
			return s.int64(&r.BarrierEpisodes, 1<<12)
		case "Samples":
			return s.null(1 << 13)
		}
		return 0
	}) {
		return 0
	}
	return bit
}

// int64s scans an object of int64 fields: keys[k] into dsts[k].
func (s *scanner) int64s(bit uint32, keys []string, dsts ...*int64) uint32 {
	if !s.object(func(key []byte) uint32 {
		for k, name := range keys {
			if string(key) == name {
				return s.int64(dsts[k], 1<<k)
			}
		}
		return 0
	}) {
		return 0
	}
	return bit
}
