package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/token"
	"sort"
	"strings"
	"testing"
)

// sarifSchemaSubset is the part of the SARIF 2.1.0 schema adhoclint's
// output exercises, transcribed from the published schema
// (https://json.schemastore.org/sarif-2.1.0.json). Object schemas here are
// closed: a property the schema does not declare fails validation, which
// is what catches JSON-tag typos like "ruleID".
const sarifSchemaSubset = `{
  "type": "object",
  "required": ["version", "runs"],
  "properties": {
    "$schema": {"type": "string"},
    "version": {"enum": ["2.1.0"]},
    "runs": {
      "type": "array",
      "items": {
        "type": "object",
        "required": ["tool"],
        "properties": {
          "tool": {
            "type": "object",
            "required": ["driver"],
            "properties": {
              "driver": {
                "type": "object",
                "required": ["name"],
                "properties": {
                  "name": {"type": "string"},
                  "rules": {
                    "type": "array",
                    "items": {
                      "type": "object",
                      "required": ["id"],
                      "properties": {
                        "id": {"type": "string"},
                        "shortDescription": {
                          "type": "object",
                          "required": ["text"],
                          "properties": {"text": {"type": "string"}}
                        }
                      }
                    }
                  }
                }
              }
            }
          },
          "results": {
            "type": "array",
            "items": {
              "type": "object",
              "required": ["message"],
              "properties": {
                "ruleId": {"type": "string"},
                "ruleIndex": {"type": "integer", "minimum": 0},
                "level": {"enum": ["none", "note", "warning", "error"]},
                "message": {
                  "type": "object",
                  "required": ["text"],
                  "properties": {"text": {"type": "string"}}
                },
                "locations": {
                  "type": "array",
                  "items": {
                    "type": "object",
                    "properties": {
                      "physicalLocation": {
                        "type": "object",
                        "properties": {
                          "artifactLocation": {
                            "type": "object",
                            "properties": {
                              "uri": {"type": "string"},
                              "uriBaseId": {"type": "string"}
                            }
                          },
                          "region": {
                            "type": "object",
                            "properties": {
                              "startLine": {"type": "integer", "minimum": 1},
                              "startColumn": {"type": "integer", "minimum": 1}
                            }
                          }
                        }
                      }
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }
}`

// validateSchema is a minimal JSON-schema checker covering the keywords
// the subset uses: type, enum, required, properties (closed), items,
// minimum.
func validateSchema(schema map[string]any, value any, path string) []string {
	var errs []string
	if enum, ok := schema["enum"].([]any); ok {
		found := false
		for _, want := range enum {
			if value == want {
				found = true
			}
		}
		if !found {
			errs = append(errs, fmt.Sprintf("%s: %v not in enum %v", path, value, enum))
		}
		return errs
	}
	switch schema["type"] {
	case "object":
		obj, ok := value.(map[string]any)
		if !ok {
			return append(errs, fmt.Sprintf("%s: expected object, got %T", path, value))
		}
		if required, ok := schema["required"].([]any); ok {
			for _, key := range required {
				if _, present := obj[key.(string)]; !present {
					errs = append(errs, fmt.Sprintf("%s: missing required property %q", path, key))
				}
			}
		}
		props, _ := schema["properties"].(map[string]any)
		keys := make([]string, 0, len(obj))
		for k := range obj {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			sub, declared := props[k].(map[string]any)
			if !declared {
				errs = append(errs, fmt.Sprintf("%s: unknown property %q", path, k))
				continue
			}
			errs = append(errs, validateSchema(sub, obj[k], path+"."+k)...)
		}
	case "array":
		arr, ok := value.([]any)
		if !ok {
			return append(errs, fmt.Sprintf("%s: expected array, got %T", path, value))
		}
		if items, ok := schema["items"].(map[string]any); ok {
			for i, elem := range arr {
				errs = append(errs, validateSchema(items, elem, fmt.Sprintf("%s[%d]", path, i))...)
			}
		}
	case "string":
		if _, ok := value.(string); !ok {
			errs = append(errs, fmt.Sprintf("%s: expected string, got %T", path, value))
		}
	case "integer":
		f, ok := value.(float64)
		if !ok || f != float64(int64(f)) {
			return append(errs, fmt.Sprintf("%s: expected integer, got %v", path, value))
		}
		if min, ok := schema["minimum"].(float64); ok && f < min {
			errs = append(errs, fmt.Sprintf("%s: %v below minimum %v", path, f, min))
		}
	}
	return errs
}

func validateSARIF(t *testing.T, data []byte) []string {
	t.Helper()
	var schema map[string]any
	if err := json.Unmarshal([]byte(sarifSchemaSubset), &schema); err != nil {
		t.Fatalf("schema subset does not parse: %v", err)
	}
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	return validateSchema(schema, doc, "$")
}

func sampleDiags() []Diagnostic {
	return []Diagnostic{
		{Pos: token.Position{Filename: "internal/overlay/messages.go", Line: 36, Column: 1},
			Rule: "guarded-field", Msg: "n.held is set at construction (node type IndexNode, declared before any mutex) but written in endJoin"},
		{Pos: token.Position{Filename: "internal/chord/node.go", Line: 120, Column: 2},
			Rule: "determinism", Msg: "go statement in stabilize: production code runs on its caller's goroutine — fan out with simnet.Parallel; only tests start goroutines"},
		{Pos: token.Position{Filename: "internal/overlay/table.go", Line: 131, Column: 3},
			Rule: "guarded-field", Msg: "t.rows is guarded by t.mu (declared after it) but accessed in rowLocked without holding the lock"},
		{Pos: token.Position{Filename: "internal/rdfpeers/range.go", Line: 77, Column: 2},
			Rule: "discarded-error", Msg: "error discarded with _ =: handle it or document why it is safe to drop"},
		{Pos: token.Position{Filename: "internal/overlay/storage.go", Line: 285, Column: 4},
			Rule: "determinism", Msg: "time.Now in internal package overlay: use the simnet virtual clock (simnet.VTime / simnet.Clock) so runs stay reproducible"},
	}
}

func TestSARIFValidatesAgainstSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := writeSARIF(&buf, sampleDiags()); err != nil {
		t.Fatalf("writeSARIF: %v", err)
	}
	if errs := validateSARIF(t, buf.Bytes()); len(errs) > 0 {
		t.Errorf("SARIF output violates the schema subset:\n%s", strings.Join(errs, "\n"))
	}
}

// An empty run (no findings) must still be schema-valid: results and rules
// must encode as [] rather than null.
func TestSARIFEmptyRunValidates(t *testing.T) {
	var buf bytes.Buffer
	if err := writeSARIF(&buf, nil); err != nil {
		t.Fatalf("writeSARIF: %v", err)
	}
	if errs := validateSARIF(t, buf.Bytes()); len(errs) > 0 {
		t.Errorf("empty SARIF output violates the schema subset:\n%s", strings.Join(errs, "\n"))
	}
	if strings.Contains(buf.String(), "null") {
		t.Errorf("empty SARIF output contains null collections:\n%s", buf.String())
	}
}

// The validator itself must reject malformed documents — otherwise the
// two tests above prove nothing.
func TestSARIFValidatorRejectsBadDocuments(t *testing.T) {
	var buf bytes.Buffer
	if err := writeSARIF(&buf, sampleDiags()); err != nil {
		t.Fatalf("writeSARIF: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	break1 := func(d map[string]any) { d["version"] = "1.0.0" }
	break2 := func(d map[string]any) {
		run := d["runs"].([]any)[0].(map[string]any)
		delete(run, "tool")
	}
	break3 := func(d map[string]any) {
		run := d["runs"].([]any)[0].(map[string]any)
		result := run["results"].([]any)[0].(map[string]any)
		loc := result["locations"].([]any)[0].(map[string]any)
		region := loc["physicalLocation"].(map[string]any)["region"].(map[string]any)
		region["startLine"] = 0.0
	}
	for i, breakDoc := range []func(map[string]any){break1, break2, break3} {
		var copy map[string]any
		if err := json.Unmarshal(buf.Bytes(), &copy); err != nil {
			t.Fatal(err)
		}
		breakDoc(copy)
		data, err := json.Marshal(copy)
		if err != nil {
			t.Fatal(err)
		}
		if errs := validateSARIF(t, data); len(errs) == 0 {
			t.Errorf("mutation %d should have failed validation", i+1)
		}
	}
}
