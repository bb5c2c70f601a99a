package llm

import "strings"

// Prompts exchanged with the model follow a fixed directive format that
// plays the role of the paper's few-shot prompt templates with enforced
// output formats:
//
//	#TASK filter_doc
//	#FIELD condition
//	related to injuries
//	#FIELD doc
//	Title: ...
//	#END
//
// Request (request.go) is the only writer of this format and ParsePrompt
// its only reader.

// BuildPrompt renders a task directive with its fields (sorted by key for
// determinism, so identical logical requests produce identical prompts).
func BuildPrompt(task string, fields map[string]string) string {
	fs := make([]Field, 0, len(fields))
	for k, v := range fields {
		fs = append(fs, Text(k, v))
	}
	return NewRequest(task, fs...).Prompt()
}

// TaskOf returns the task name on a prompt's first line, or "" exactly
// where ParsePrompt reports ok=false. Wrappers that only label a call by
// its task use this instead of parsing the fields.
func TaskOf(prompt string) string {
	line, _, _ := strings.Cut(prompt, "\n")
	if !strings.HasPrefix(line, "#TASK ") {
		return ""
	}
	return strings.TrimSpace(line[len("#TASK "):])
}

// ParsePrompt extracts the task name and fields from a prompt built with
// BuildPrompt. ok is false for malformed prompts. A field's value is the
// run of lines between its #FIELD line and the next directive, which is
// one contiguous substring of the prompt: nothing is split or copied.
func ParsePrompt(prompt string) (task string, fields map[string]string, ok bool) {
	task = TaskOf(prompt)
	if task == "" {
		return "", nil, false
	}
	fields = make(map[string]string)
	key := ""
	from, to := -1, -1 // the open field's value is prompt[from:to]
	flush := func() {
		if key != "" {
			fields[key] = ""
			if from >= 0 {
				fields[key] = prompt[from:to]
			}
		}
		key, from = "", -1
	}
	for pos := strings.IndexByte(prompt, '\n') + 1; pos > 0; {
		end := len(prompt)
		next := 0 // the line after the last has no start
		if n := strings.IndexByte(prompt[pos:], '\n'); n >= 0 {
			end = pos + n
			next = end + 1
		}
		switch ln := prompt[pos:end]; {
		case strings.HasPrefix(ln, "#FIELD "):
			flush()
			key = strings.TrimSpace(ln[len("#FIELD "):])
		case ln == "#END":
			flush()
			return task, fields, true
		default:
			if from < 0 {
				from = pos
			}
			to = end
		}
		pos = next
	}
	flush()
	return task, fields, true
}

// DocSep separates documents inside batched prompts.
const DocSep = "\n=====DOC=====\n"

// JoinDocs packs document texts for a batched prompt.
func JoinDocs(docs []string) string { return strings.Join(docs, DocSep) }

// SplitDocs unpacks document texts from a batched prompt field.
func SplitDocs(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, DocSep)
}
