package obs

import (
	"fmt"
	"io"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// WriteProm renders v, a struct or a pointer to one, in the Prometheus
// text exposition format (version 0.0.4). The metrics are declared by
// struct tags on v's fields, next to their json tags:
//
//	Hits int64 `json:"hits" prom:"app_hits_total,counter" help:"Requests answered from cache."`
//
// A prom tag "family,type[,label…]" makes the field samples of that
// family: a number, a bool (1 or 0), a HistSnapshot (cumulative le
// buckets, _sum and _count), or a map from string to one of those. Each
// label is a constant ("mode=closed_form") or, on a map, a bare name the
// key fills ("reason"). A field with no prom tag is walked into when it
// is a struct or a pointer to one; a tag with no comma labels the
// elements of a map or slice of structs, by the map key ("endpoint") or
// by one of the element's fields ("peer=URL"). Fields tagged prom:"-",
// and strings, are skipped. Families are written in the order the walk
// first meets them, each contiguous under one HELP/TYPE header, maps in
// key order; a family with no sample (an empty map) is left out, and one
// declared twice with different types or help is an error.
func WriteProm(w io.Writer, v any) error {
	p := promWalk{index: make(map[string]*promFamily)}
	p.walk(reflect.ValueOf(v), nil)
	if p.err != nil {
		return p.err
	}
	for _, f := range p.fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s",
			f.name, escapeHelp(f.help), f.name, f.typ, f.samples.String()); err != nil {
			return err
		}
	}
	return nil
}

type promFamily struct {
	name, typ, help string
	samples         strings.Builder
}

type promWalk struct {
	fams  []*promFamily
	index map[string]*promFamily
	err   error
}

func (p *promWalk) walk(v reflect.Value, labels map[string]string) {
	for v.Kind() == reflect.Pointer || v.Kind() == reflect.Interface {
		if v.IsNil() {
			return
		}
		v = v.Elem()
	}
	if v.Kind() != reflect.Struct {
		return
	}
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag, tagged := f.Tag.Lookup("prom")
		if !f.IsExported() || tag == "-" {
			continue
		}
		switch {
		case !tagged:
			p.walk(v.Field(i), labels)
		case !strings.Contains(tag, ","):
			label, field, byField := strings.Cut(tag, "=")
			each(v.Field(i), func(key string, elem reflect.Value) {
				if byField {
					key = reflect.Indirect(elem).FieldByName(field).String()
				}
				p.walk(elem, with(labels, label, key))
			})
		default:
			p.family(v.Field(i), tag, f.Tag.Get("help"), labels)
		}
	}
}

// family emits one field's samples under its tag "family,type[,label…]".
func (p *promWalk) family(v reflect.Value, tag, help string, labels map[string]string) {
	parts := strings.Split(tag, ",")
	name, typ, keyLabel := parts[0], parts[1], ""
	for _, l := range parts[2:] {
		if k, val, ok := strings.Cut(l, "="); ok {
			labels = with(labels, k, val)
		} else {
			keyLabel = l
		}
	}
	decl := promFamily{name: name, typ: typ, help: help}
	if keyLabel == "" {
		p.sample(&decl, labels, v)
		return
	}
	each(v, func(key string, elem reflect.Value) { p.sample(&decl, with(labels, keyLabel, key), elem) })
}

// sample writes one sample of the declared family, registering the
// family with its first sample.
func (p *promWalk) sample(decl *promFamily, labels map[string]string, v reflect.Value) {
	f := p.index[decl.name]
	if f == nil {
		f = &promFamily{name: decl.name, typ: decl.typ, help: decl.help}
		p.index[f.name] = f
		p.fams = append(p.fams, f)
	} else if f.typ != decl.typ || f.help != decl.help {
		p.fail(fmt.Errorf("obs: family %s declared as %s %q and as %s %q", f.name, f.typ, f.help, decl.typ, decl.help))
		return
	}
	b := &f.samples
	var x float64
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			x = 1
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x = float64(v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		x = float64(v.Uint())
	case reflect.Float32, reflect.Float64:
		x = v.Float()
	default:
		s, ok := v.Interface().(HistSnapshot)
		if !ok {
			p.fail(fmt.Errorf("obs: family %s: cannot export a %s", f.name, v.Type()))
			return
		}
		for _, bk := range s.Buckets {
			le := "+Inf"
			if bk.LEUS >= 0 {
				le = strconv.FormatInt(bk.LEUS, 10)
			}
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, formatLabels(with(labels, "le", le)), bk.Count)
		}
		fmt.Fprintf(b, "%s_sum%s %d\n", f.name, formatLabels(labels), s.SumUS)
		fmt.Fprintf(b, "%s_count%s %d\n", f.name, formatLabels(labels), s.Count)
		return
	}
	fmt.Fprintf(b, "%s%s %s\n", f.name, formatLabels(labels), formatValue(x))
}

func (p *promWalk) fail(err error) {
	if p.err == nil {
		p.err = err
	}
}

// each calls fn on every element of a map with string keys, in key
// order, or of a slice, in index order (with an empty key).
func each(v reflect.Value, fn func(key string, elem reflect.Value)) {
	switch v.Kind() {
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		for _, k := range keys {
			fn(k.String(), v.MapIndex(k))
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fn("", v.Index(i))
		}
	}
}

// with returns a copy of labels with k set to v.
func with(labels map[string]string, k, v string) map[string]string {
	out := make(map[string]string, len(labels)+1)
	for lk, lv := range labels {
		out[lk] = lv
	}
	out[k] = v
	return out
}

func formatLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
