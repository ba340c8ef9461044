//! Plain-text table formatting for the reproduction reports.

/// Render a fixed-width table with a header row.
pub(crate) fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncols, "row arity mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<&str>, widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(headers.to_vec(), &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.iter().map(String::as_str).collect(), &widths));
        out.push('\n');
    }
    out
}

/// Format seconds with adaptive precision.
pub(crate) fn secs(t: f64) -> String {
    if t >= 100.0 {
        format!("{t:.0}")
    } else if t >= 1.0 {
        format!("{t:.2}")
    } else if t >= 1e-3 {
        format!("{:.2}ms", t * 1e3)
    } else {
        format!("{:.1}us", t * 1e6)
    }
}

/// Format a ratio as `12.3x`.
pub(crate) fn ratio(r: f64) -> String {
    format!("{r:.1}x")
}

/// Format a byte count.
pub(crate) fn bytes(b: u64) -> String {
    const K: f64 = 1024.0;
    let b = b as f64;
    if b >= K * K * K {
        format!("{:.2}GB", b / (K * K * K))
    } else if b >= K * K {
        format!("{:.2}MB", b / (K * K))
    } else if b >= K {
        format!("{:.1}KB", b / K)
    } else {
        format!("{b:.0}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "12345".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].ends_with("12345"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(secs(123.4), "123");
        assert_eq!(secs(1.234), "1.23");
        assert_eq!(secs(0.01234), "12.34ms");
        assert_eq!(secs(0.0000123), "12.3us");
        assert_eq!(ratio(41.96), "42.0x");
        assert_eq!(bytes(512), "512B");
        assert_eq!(bytes(2048), "2.0KB");
        assert_eq!(bytes(3 * 1024 * 1024), "3.00MB");
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let _ = table(&["a", "b"], &[vec!["x".into()]]);
    }
}
