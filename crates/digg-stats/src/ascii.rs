//! Terminal rendering of histograms, series and scatter plots.
//!
//! The example binaries print paper figures as ASCII so the
//! reproduction is inspectable without a plotting stack. Rendering is
//! deliberately simple: fixed-width bars, log-log scatter grids and
//! sparklines.

use crate::histogram::Histogram;

/// A bar of `#`s whose length is `count / max` of `width`, rounded.
#[expect(
    clippy::cast_possible_truncation,
    reason = "a bar length rounded from a share of `width`, so it fits in usize"
)]
pub fn bar(count: u64, max: u64, width: usize) -> String {
    "#".repeat((count as f64 / max as f64 * width as f64).round() as usize)
}

/// Render a fixed-width histogram as horizontal bars.
///
/// `width` is the maximum bar length in characters.
pub fn histogram_bars(h: &Histogram, width: usize) -> String {
    let max = h.counts().iter().copied().max().unwrap_or(0).max(1);
    let mut out = String::new();
    for i in 0..h.bins() {
        let (a, b) = h.bin_range(i);
        let c = h.count(i);
        out.push_str(&format!(
            "[{:>7.0},{:>7.0}) |{:<width$}| {}\n",
            a,
            b,
            bar(c, max, width),
            c,
            width = width
        ));
    }
    out
}

/// Scatter plot of `(x, y)` points on log-log axes in a
/// `cols x rows` character grid. Non-positive points are skipped
/// (they have no place on log axes).
pub fn loglog_scatter(points: &[(f64, f64)], cols: usize, rows: usize) -> String {
    let pos: Vec<(f64, f64)> = points
        .iter()
        .copied()
        .filter(|&(x, y)| x > 0.0 && y > 0.0)
        .collect();
    if pos.is_empty() || cols == 0 || rows == 0 {
        return String::from("(no positive data)\n");
    }
    let (mut xmin, mut xmax) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut ymin, mut ymax) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in &pos {
        xmin = xmin.min(x);
        xmax = xmax.max(x);
        ymin = ymin.min(y);
        ymax = ymax.max(y);
    }
    // Avoid a zero-width axis when all points coincide.
    if xmin == xmax {
        xmax = xmin * 10.0;
    }
    if ymin == ymax {
        ymax = ymin * 10.0;
    }
    let (lx0, lx1) = (xmin.ln(), xmax.ln());
    let (ly0, ly1) = (ymin.ln(), ymax.ln());
    let mut grid = vec![vec![' '; cols]; rows];
    for &(x, y) in &pos {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a grid column rounded from a share of `cols - 1`"
        )]
        let cx = ((x.ln() - lx0) / (lx1 - lx0) * (cols - 1) as f64).round() as usize;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a grid row rounded from a share of `rows - 1`"
        )]
        let cy = ((y.ln() - ly0) / (ly1 - ly0) * (rows - 1) as f64).round() as usize;
        let r = rows - 1 - cy; // y grows upward
        grid[r][cx] = '*';
    }
    let mut out = String::new();
    out.push_str(&format!("y: {:.1} .. {:.1} (log scale)\n", ymin, ymax));
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    out.push('+');
    out.push_str(&"-".repeat(cols));
    out.push('\n');
    out.push_str(&format!("x: {:.1} .. {:.1} (log scale)\n", xmin, xmax));
    out
}

/// Sparkline of a numeric series using eighth-block characters; handy
/// for Fig. 1 vote-accrual curves in terminal output.
pub fn sparkline(values: &[f64]) -> String {
    const TICKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let span = (max - min).max(1e-12);
    values
        .iter()
        .map(|&v| {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "a tick index rounded from a share of 7"
            )]
            let idx = (((v - min) / span) * 7.0).round() as usize;
            TICKS[idx.min(7)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bars_shape() {
        let h = Histogram::of(0.0, 10.0, 2, &[1.0, 1.5, 7.0]);
        let s = histogram_bars(&h, 10);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("##########")); // max bar full width
        assert!(lines[0].ends_with("2"));
        assert!(lines[1].ends_with("1"));
    }

    #[test]
    fn scatter_handles_empty_and_degenerate() {
        assert!(loglog_scatter(&[], 10, 5).contains("no positive data"));
        assert!(loglog_scatter(&[(-1.0, 2.0)], 10, 5).contains("no positive data"));
        // Single point must not panic or divide by zero.
        let s = loglog_scatter(&[(5.0, 5.0)], 10, 5);
        assert!(s.contains('*'));
    }

    #[test]
    fn scatter_places_extremes_in_corners() {
        let s = loglog_scatter(&[(1.0, 1.0), (100.0, 100.0)], 11, 5);
        let lines: Vec<&str> = s.lines().collect();
        // First grid row (top) holds the max-y point at the far right.
        assert!(lines[1].ends_with('*'));
        // Last grid row (bottom) holds the min point at the left.
        assert_eq!(&lines[5][1..2], "*");
    }

    #[test]
    fn sparkline_monotone() {
        let s = sparkline(&[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(s.chars().count(), 4);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
        assert_eq!(sparkline(&[]), "");
    }
}
