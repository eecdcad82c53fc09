package graphio

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/dag"
	"repro/internal/network"
)

// The encoding/json decoders the lexer in lex.go replaced, kept as the
// reference the differential fuzzers compare it against. Decode reads
// only the first value of a stream, so the reference adds the one
// deliberate change: anything but whitespace after the document is an
// error.

func referenceReadGraph(r io.Reader) (*dag.Graph, error) {
	var doc graphDoc
	if err := referenceDecode(r, &doc); err != nil {
		return nil, err
	}
	return doc.build()
}

func referenceReadTopology(r io.Reader) (*network.Topology, error) {
	var doc topologyDoc
	if err := referenceDecode(r, &doc); err != nil {
		return nil, err
	}
	return doc.build()
}

func referenceDecode(r io.Reader, doc any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(doc); err != nil {
		return fmt.Errorf("graphio: %w", err)
	}
	switch _, err := dec.Token(); err {
	case io.EOF:
		return nil
	case nil:
		return fmt.Errorf("graphio: data after the document")
	default:
		return fmt.Errorf("graphio: %w", err)
	}
}
