//! Rectangles and constraint-based layout splitting, modeled on the
//! ratatui layout idiom (`Layout::default().direction(..)
//! .constraints(..).split(area)`) without the external dependency.

/// An axis-aligned region of the terminal grid, in cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Rect {
    /// Left column.
    pub x: u16,
    /// Top row.
    pub y: u16,
    /// Width in columns.
    pub width: u16,
    /// Height in rows.
    pub height: u16,
}

impl Rect {
    /// A rectangle from its corner and extent.
    #[must_use]
    pub(crate) fn new(x: u16, y: u16, width: u16, height: u16) -> Self {
        Rect { x, y, width, height }
    }

    /// One past the rightmost column.
    #[must_use]
    pub(crate) fn right(self) -> u16 {
        self.x.saturating_add(self.width)
    }

    /// One past the bottom row.
    #[must_use]
    pub(crate) fn bottom(self) -> u16 {
        self.y.saturating_add(self.height)
    }

    /// Number of cells covered.
    #[must_use]
    pub(crate) fn area(self) -> u32 {
        u32::from(self.width) * u32::from(self.height)
    }

    /// Whether the rectangle covers no cells.
    #[must_use]
    pub(crate) fn is_empty(self) -> bool {
        self.width == 0 || self.height == 0
    }
}

/// How much of the split axis one chunk demands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Constraint {
    /// Exactly this many cells.
    Length(u16),
    /// At least this many cells; `Min` chunks absorb the leftover space
    /// equally.
    Min(u16),
}

/// A one-axis splitter: give it constraints, get sub-rectangles.
#[derive(Debug, Clone, Default)]
pub(crate) struct Layout {
    constraints: Vec<Constraint>,
}

impl Layout {
    /// Sets the chunk constraints, one per resulting rectangle.
    #[must_use]
    pub(crate) fn constraints(mut self, constraints: impl Into<Vec<Constraint>>) -> Self {
        self.constraints = constraints.into();
        self
    }

    /// Splits `area` into one rectangle per constraint, in order.
    ///
    /// Fixed demands resolve first; leftover space is shared equally
    /// among `Min` chunks (earlier chunks take the remainder cells).
    /// When demands exceed the area, trailing chunks are truncated to
    /// zero — never panics.
    #[must_use]
    pub(crate) fn split(&self, area: Rect) -> Vec<Rect> {
        let total = area.height;
        let mut sizes: Vec<u16> = self
            .constraints
            .iter()
            .map(|c| match *c {
                Constraint::Length(n) | Constraint::Min(n) => n,
            })
            .collect();

        let demanded: u32 = sizes.iter().map(|&s| u32::from(s)).sum();
        let mut slack = u32::from(total).saturating_sub(demanded);
        let mins: Vec<usize> = self
            .constraints
            .iter()
            .enumerate()
            .filter(|(_, c)| matches!(c, Constraint::Min(_)))
            .map(|(i, _)| i)
            .collect();
        if slack > 0 && !mins.is_empty() {
            let each = slack / mins.len() as u32;
            let mut extra = slack % mins.len() as u32;
            for &i in &mins {
                let mut grow = each;
                if extra > 0 {
                    grow += 1;
                    extra -= 1;
                }
                sizes[i] = sizes[i].saturating_add(grow.min(u32::from(u16::MAX)) as u16);
            }
            slack = 0;
        }
        if slack > 0 {
            if let Some(last) = sizes.last_mut() {
                *last = last.saturating_add(slack.min(u32::from(u16::MAX)) as u16);
            }
        }

        let mut chunks = Vec::with_capacity(sizes.len());
        let mut offset = 0u16;
        for size in sizes {
            let remaining = total.saturating_sub(offset);
            let size = size.min(remaining);
            chunks.push(Rect::new(area.x, area.y + offset, area.width, size));
            offset += size;
        }
        chunks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_chunks_absorb_slack_equally() {
        let chunks = Layout::default()
            .constraints([Constraint::Length(3), Constraint::Min(0), Constraint::Min(0)])
            .split(Rect::new(0, 0, 10, 13));
        assert_eq!(chunks[0], Rect::new(0, 0, 10, 3));
        assert_eq!(chunks[1], Rect::new(0, 3, 10, 5));
        assert_eq!(chunks[2], Rect::new(0, 8, 10, 5));
    }

    #[test]
    fn overcommitted_constraints_truncate_instead_of_panicking() {
        let chunks = Layout::default()
            .constraints([Constraint::Length(8), Constraint::Length(8)])
            .split(Rect::new(0, 0, 4, 10));
        assert_eq!(chunks[0].height, 8);
        assert_eq!(chunks[1].height, 2);
    }
}
