//! JUnit XML rendering of a scenario run.
//!
//! One `<testsuite>` named `presp-scenario`, one `<testcase>` per
//! scenario. A failed scenario carries one `<failure>` whose `message`
//! names the first failing assertion and the seed that replays it, and
//! whose body lists every failing assertion's detail. Files that never
//! parsed are failures too — a typo'd scenario must break CI, not
//! silently shrink the matrix. All `time` attributes are `"0"`: the
//! report is a function of the scenario bytes, never the host's speed.

use crate::report::ReportEntry;
use std::fmt::Write as _;

/// Escapes text for XML attribute and element content.
fn escape(input: &str) -> String {
    let mut out = String::with_capacity(input.len());
    for c in input.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            c => out.push(c),
        }
    }
    out
}

/// Renders the run as a JUnit XML document.
pub(crate) fn render(entries: &[ReportEntry]) -> String {
    let failures = entries.iter().filter(|e| !e.passed()).count();
    let mut xml = String::new();
    xml.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    let _ = writeln!(
        xml,
        "<testsuites tests=\"{}\" failures=\"{failures}\" time=\"0\">",
        entries.len()
    );
    let _ = writeln!(
        xml,
        "  <testsuite name=\"presp-scenario\" tests=\"{}\" failures=\"{failures}\" time=\"0\">",
        entries.len()
    );
    for entry in entries {
        let name = escape(&entry.name());
        match entry {
            ReportEntry::LoadFailed { file, error } => {
                let _ = writeln!(
                    xml,
                    "    <testcase name=\"{name}\" classname=\"presp-scenario\" time=\"0\">"
                );
                let _ = writeln!(
                    xml,
                    "      <failure message=\"scenario failed to load: {}\">{}</failure>",
                    escape(file),
                    escape(error)
                );
                xml.push_str("    </testcase>\n");
            }
            ReportEntry::Ran { verdict, .. } if verdict.passed() => {
                let _ = writeln!(
                    xml,
                    "    <testcase name=\"{name}\" classname=\"presp-scenario\" time=\"0\"/>"
                );
            }
            ReportEntry::Ran { verdict, .. } => {
                let _ = writeln!(
                    xml,
                    "    <testcase name=\"{name}\" classname=\"presp-scenario\" time=\"0\">"
                );
                let failing: Vec<_> = verdict.results.iter().filter(|r| !r.passed).collect();
                let first = failing
                    .first()
                    .expect("a failed verdict has a failing check");
                let _ = write!(
                    xml,
                    "      <failure message=\"{} (replay seed {})\">",
                    escape(&first.check),
                    first.replay_seed
                );
                for (i, r) in failing.iter().enumerate() {
                    if i > 0 {
                        xml.push('\n');
                    }
                    let _ = write!(
                        xml,
                        "{}: {} (replay seed {})",
                        escape(&r.check),
                        escape(&r.detail),
                        r.replay_seed
                    );
                }
                xml.push_str("</failure>\n");
                xml.push_str("    </testcase>\n");
            }
        }
    }
    xml.push_str("  </testsuite>\n");
    xml.push_str("</testsuites>\n");
    xml
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_the_five_metacharacters() {
        assert_eq!(escape(r#"a<b>&"c'"#), "a&lt;b&gt;&amp;&quot;c&apos;");
    }

    #[test]
    fn load_failure_becomes_a_failed_testcase() {
        let entries = vec![ReportEntry::LoadFailed {
            file: "scenarios/bad.json".to_string(),
            error: "unknown key 'nam' <here>".to_string(),
        }];
        let xml = render(&entries);
        assert!(xml.contains("failures=\"1\""));
        assert!(xml.contains("scenarios/bad.json"));
        assert!(xml.contains("&lt;here&gt;"), "{xml}");
    }
}
