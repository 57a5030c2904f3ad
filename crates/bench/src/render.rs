//! Minimal ASCII table rendering for `presp repro` and `presp bench`.

/// Renders a table with a header row, column-aligned.
pub(crate) fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate().take(ncols) {
            out.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
        }
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    };
    line(
        &mut out,
        &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
    );
    line(
        &mut out,
        &widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>(),
    );
    for row in rows {
        line(&mut out, row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let out = table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a"));
        assert!(lines[3].starts_with("longer"));
    }
}
