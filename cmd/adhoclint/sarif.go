package main

import (
	"encoding/json"
	"io"
	"path/filepath"
)

// SARIF 2.1.0 output, the exchange format CI uploads to code scanning.
// Only the subset of the format adhoclint needs is modeled; the shape is
// validated against a transcribed schema subset in sarif_test.go.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId,omitempty"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// buildSARIF assembles the log for one lint run. Diagnostic filenames are
// expected to already be module-relative; they become %SRCROOT%-based URIs
// so code-scanning viewers resolve them against the repository root.
func buildSARIF(diags []Diagnostic) sarifLog {
	driver := sarifDriver{Name: "adhoclint", Rules: []sarifRule{}}
	ruleIndex := map[string]int{}
	for i, r := range rules {
		ruleIndex[r.name] = i
		driver.Rules = append(driver.Rules, sarifRule{
			ID:               r.name,
			ShortDescription: sarifMessage{Text: r.doc},
		})
	}
	run := sarifRun{Tool: sarifTool{Driver: driver}, Results: []sarifResult{}}
	for _, d := range diags {
		run.Results = append(run.Results, sarifResult{
			RuleID:    d.Rule,
			RuleIndex: ruleIndex[d.Rule],
			Level:     "warning",
			Message:   sarifMessage{Text: d.Msg},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{
						URI:       filepath.ToSlash(d.Pos.Filename),
						URIBaseID: "%SRCROOT%",
					},
					Region: sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
				},
			}},
		})
	}
	return sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{run},
	}
}

// writeSARIF emits the log as indented JSON.
func writeSARIF(w io.Writer, diags []Diagnostic) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(buildSARIF(diags))
}
