//! The widget set: bordered blocks, paragraphs, tables, sparklines,
//! tab bars, and heat shading — the pieces the live cockpit composes.

use super::buffer::Buffer;
use super::geometry::{Constraint, Rect};
use super::style::Style;

/// Anything that can draw itself into a buffer region.
pub(crate) trait Widget {
    /// Draws the widget into `area` of `buf`; drawing outside `area` is
    /// a bug, drawing outside the buffer is clipped.
    fn render(self, area: Rect, buf: &mut Buffer);
}

/// Which box edges a [`Block`] draws; combine with `|`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Borders(u8);

impl Borders {
    /// No border.
    pub(crate) const NONE: Borders = Borders(0);
    /// Top edge.
    pub(crate) const TOP: Borders = Borders(1);
    /// Bottom edge.
    pub(crate) const BOTTOM: Borders = Borders(2);
    /// Left edge.
    pub(crate) const LEFT: Borders = Borders(4);
    /// Right edge.
    pub(crate) const RIGHT: Borders = Borders(8);
    /// All four edges.
    pub(crate) const ALL: Borders = Borders(15);

    /// Whether every edge in `other` is present.
    #[must_use]
    pub(crate) fn contains(self, other: Borders) -> bool {
        self.0 & other.0 == other.0
    }
}

impl std::ops::BitOr for Borders {
    type Output = Borders;
    fn bitor(self, rhs: Borders) -> Borders {
        Borders(self.0 | rhs.0)
    }
}

/// A bordered, optionally titled box — the framing widget everything
/// else nests inside.
#[derive(Debug, Clone, Default)]
pub(crate) struct Block {
    title: String,
    borders: Option<Borders>,
}

impl Block {
    /// Sets the title, drawn inside the top border.
    #[must_use]
    pub(crate) fn title(mut self, title: impl Into<String>) -> Self {
        self.title = title.into();
        self
    }

    /// Sets which edges to draw.
    #[must_use]
    pub(crate) fn borders(mut self, borders: Borders) -> Self {
        self.borders = Some(borders);
        self
    }

    /// The drawable region inside the borders.
    #[must_use]
    pub(crate) fn inner(&self, area: Rect) -> Rect {
        let b = self.borders.unwrap_or(Borders::NONE);
        let mut inner = area;
        if b.contains(Borders::LEFT) {
            inner.x = inner.x.saturating_add(1);
            inner.width = inner.width.saturating_sub(1);
        }
        if b.contains(Borders::RIGHT) {
            inner.width = inner.width.saturating_sub(1);
        }
        if b.contains(Borders::TOP) || !self.title.is_empty() {
            inner.y = inner.y.saturating_add(1);
            inner.height = inner.height.saturating_sub(1);
        }
        if b.contains(Borders::BOTTOM) {
            inner.height = inner.height.saturating_sub(1);
        }
        inner
    }
}

impl Widget for Block {
    fn render(self, area: Rect, buf: &mut Buffer) {
        if area.is_empty() {
            return;
        }
        let b = self.borders.unwrap_or(Borders::NONE);
        let (top, bottom) = (area.y, area.bottom() - 1);
        let (left, right) = (area.x, area.right() - 1);
        let s = Style::default();
        if b.contains(Borders::TOP) {
            for x in left..=right {
                buf.set(x, top, '─', s);
            }
        }
        if b.contains(Borders::BOTTOM) {
            for x in left..=right {
                buf.set(x, bottom, '─', s);
            }
        }
        if b.contains(Borders::LEFT) {
            for y in top..=bottom {
                buf.set(left, y, '│', s);
            }
        }
        if b.contains(Borders::RIGHT) {
            for y in top..=bottom {
                buf.set(right, y, '│', s);
            }
        }
        if b.contains(Borders::TOP | Borders::LEFT) {
            buf.set(left, top, '┌', s);
        }
        if b.contains(Borders::TOP | Borders::RIGHT) {
            buf.set(right, top, '┐', s);
        }
        if b.contains(Borders::BOTTOM | Borders::LEFT) {
            buf.set(left, bottom, '└', s);
        }
        if b.contains(Borders::BOTTOM | Borders::RIGHT) {
            buf.set(right, bottom, '┘', s);
        }
        if !self.title.is_empty() && area.width > 2 {
            let start = left + 1;
            let max = usize::from(area.width.saturating_sub(2));
            let title: String = self.title.chars().take(max).collect();
            buf.set_string(start, top, &title, Style::default());
        }
    }
}

/// Plain lines of text, rendered top-down and clipped to the area.
#[derive(Debug, Clone, Default)]
pub(crate) struct Paragraph {
    lines: Vec<String>,
    block: Option<Block>,
}

impl Paragraph {
    /// A paragraph from plain lines.
    #[must_use]
    pub(crate) fn new(lines: impl IntoIterator<Item = impl Into<String>>) -> Self {
        Paragraph { lines: lines.into_iter().map(Into::into).collect(), block: None }
    }

    /// Wraps the paragraph in a block.
    #[must_use]
    pub(crate) fn block(mut self, block: Block) -> Self {
        self.block = Some(block);
        self
    }
}

impl Widget for Paragraph {
    fn render(self, area: Rect, buf: &mut Buffer) {
        let inner = match &self.block {
            Some(b) => b.inner(area),
            None => area,
        };
        if let Some(b) = self.block {
            b.render(area, buf);
        }
        for (i, text) in self.lines.iter().enumerate() {
            let y = inner.y + i as u16;
            if y >= inner.bottom() {
                break;
            }
            let max = usize::from(inner.width);
            let clipped: String = text.chars().take(max).collect();
            buf.set_string(inner.x, y, &clipped, Style::default());
        }
    }
}

/// One table row: cell texts plus a row style.
#[derive(Debug, Clone, Default)]
pub(crate) struct Row {
    cells: Vec<String>,
    style: Style,
}

impl Row {
    /// A row from its cell texts.
    #[must_use]
    pub(crate) fn new(cells: impl IntoIterator<Item = impl Into<String>>) -> Self {
        Row { cells: cells.into_iter().map(Into::into).collect(), style: Style::default() }
    }

    /// Sets the row style.
    #[must_use]
    pub(crate) fn style(mut self, style: Style) -> Self {
        self.style = style;
        self
    }
}

/// A column-aligned table with an optional header row.
#[derive(Debug, Clone)]
pub(crate) struct Table {
    rows: Vec<Row>,
    widths: Vec<Constraint>,
    header: Option<Row>,
    block: Option<Block>,
    column_spacing: u16,
}

impl Table {
    /// A table from its body rows and column width constraints.
    #[must_use]
    pub(crate) fn new(
        rows: impl IntoIterator<Item = Row>,
        widths: impl Into<Vec<Constraint>>,
    ) -> Self {
        Table {
            rows: rows.into_iter().collect(),
            widths: widths.into(),
            header: None,
            block: None,
            column_spacing: 1,
        }
    }

    /// Sets the header row.
    #[must_use]
    pub(crate) fn header(mut self, header: Row) -> Self {
        self.header = Some(header);
        self
    }

    /// Wraps the table in a block.
    #[must_use]
    pub(crate) fn block(mut self, block: Block) -> Self {
        self.block = Some(block);
        self
    }

    fn column_starts(&self, inner: Rect) -> Vec<(u16, u16)> {
        let mut cols = Vec::with_capacity(self.widths.len());
        let mut x = inner.x;
        for c in &self.widths {
            let w = match *c {
                Constraint::Length(n) | Constraint::Min(n) => n,
            };
            let w = w.min(inner.right().saturating_sub(x));
            cols.push((x, w));
            x = x.saturating_add(w).saturating_add(self.column_spacing);
        }
        cols
    }

    fn render_row(row: &Row, y: u16, cols: &[(u16, u16)], buf: &mut Buffer) {
        for (text, &(x, w)) in row.cells.iter().zip(cols) {
            let clipped: String = text.chars().take(usize::from(w)).collect();
            buf.set_string(x, y, &clipped, row.style);
        }
    }
}

impl Widget for Table {
    fn render(self, area: Rect, buf: &mut Buffer) {
        let inner = match &self.block {
            Some(b) => b.inner(area),
            None => area,
        };
        if let Some(b) = self.block.clone() {
            b.render(area, buf);
        }
        if inner.is_empty() {
            return;
        }
        let cols = self.column_starts(inner);
        let mut y = inner.y;
        if let Some(h) = &self.header {
            Self::render_row(h, y, &cols, buf);
            y = y.saturating_add(1);
        }
        for row in &self.rows {
            if y >= inner.bottom() {
                break;
            }
            Self::render_row(row, y, &cols, buf);
            y = y.saturating_add(1);
        }
    }
}

/// The eight vertical-eighth block glyphs, lowest bar first.
const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// A bottom-aligned bar-per-sample mini chart. With more data points
/// than columns, the most recent points win (the chart scrolls left).
#[derive(Debug, Clone, Default)]
pub(crate) struct Sparkline {
    data: Vec<f64>,
    style: Style,
    block: Option<Block>,
}

impl Sparkline {
    /// A sparkline over `data`; negative samples clamp to zero.
    #[must_use]
    pub(crate) fn new(data: impl Into<Vec<f64>>) -> Self {
        Sparkline { data: data.into(), style: Style::default(), block: None }
    }

    /// Sets the bar style.
    #[must_use]
    pub(crate) fn style(mut self, style: Style) -> Self {
        self.style = style;
        self
    }

    /// Wraps the sparkline in a block.
    #[must_use]
    pub(crate) fn block(mut self, block: Block) -> Self {
        self.block = Some(block);
        self
    }
}

impl Widget for Sparkline {
    fn render(self, area: Rect, buf: &mut Buffer) {
        let inner = match &self.block {
            Some(b) => b.inner(area),
            None => area,
        };
        if let Some(b) = self.block {
            b.render(area, buf);
        }
        if inner.is_empty() || self.data.is_empty() {
            return;
        }
        let visible = usize::from(inner.width).min(self.data.len());
        let window = &self.data[self.data.len() - visible..];
        let scale = window.iter().cloned().fold(0.0, f64::max).max(f64::MIN_POSITIVE);
        let levels = u32::from(inner.height) * 8;
        for (i, &v) in window.iter().enumerate() {
            let x = inner.x + i as u16;
            // Round half-up so a full-scale sample always tops out.
            let mut eighths = ((v.max(0.0) / scale) * f64::from(levels) + 0.5).floor() as u32;
            eighths = eighths.min(levels);
            if v > 0.0 {
                eighths = eighths.max(1);
            }
            for row in 0..inner.height {
                let y = inner.bottom() - 1 - row;
                let below = u32::from(row) * 8;
                let here = eighths.saturating_sub(below).min(8);
                if here == 0 {
                    break;
                }
                buf.set(x, y, BARS[here as usize - 1], self.style);
            }
        }
    }
}

/// A one-row tab bar with the selected tab highlighted.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tabs {
    titles: Vec<String>,
    selected: usize,
}

impl Tabs {
    /// A tab bar from its titles.
    #[must_use]
    pub(crate) fn new(titles: impl IntoIterator<Item = impl Into<String>>) -> Self {
        Tabs { titles: titles.into_iter().map(Into::into).collect(), selected: 0 }
    }

    /// Selects the highlighted tab by index.
    #[must_use]
    pub(crate) fn select(mut self, selected: usize) -> Self {
        self.selected = selected;
        self
    }
}

impl Widget for Tabs {
    fn render(self, area: Rect, buf: &mut Buffer) {
        if area.is_empty() {
            return;
        }
        let mut x = area.x;
        for (i, title) in self.titles.iter().enumerate() {
            if x >= area.right() {
                break;
            }
            if i > 0 {
                x = buf.set_string(x, area.y, " │ ", Style::default());
            }
            let style =
                if i == self.selected { Style::default().reversed() } else { Style::default() };
            let marker =
                if i == self.selected { format!("[{title}]") } else { format!(" {title} ") };
            x = buf.set_string(x, area.y, &marker, style);
        }
    }
}

/// Maps an intensity in `[0, 1]` onto the shade ramp
/// `' ' ░ ▒ ▓ █` — the heatmap glyph set.
#[must_use]
pub(crate) fn shade(level: f64) -> char {
    const RAMP: [char; 5] = [' ', '░', '▒', '▓', '█'];
    let clamped = level.clamp(0.0, 1.0);
    // Bucket edges at 0.125, 0.375, 0.625, 0.875: a level has to earn
    // the full block.
    let idx = ((clamped * 4.0) + 0.5).floor() as usize;
    RAMP[idx.min(4)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain(widget: impl Widget, width: u16, height: u16) -> String {
        let area = Rect::new(0, 0, width, height);
        let mut buf = Buffer::empty(area);
        widget.render(area, &mut buf);
        buf.to_plain_text()
    }

    #[test]
    fn block_draws_borders_and_title() {
        let block = Block::default().title(" Costs ").borders(Borders::ALL);
        assert_eq!(plain(block, 12, 3), "┌ Costs ───┐\n│          │\n└──────────┘");
    }

    #[test]
    fn block_inner_accounts_for_each_border() {
        let block = Block::default().borders(Borders::ALL);
        assert_eq!(block.inner(Rect::new(0, 0, 10, 4)), Rect::new(1, 1, 8, 2));
        let open = Block::default().borders(Borders::TOP);
        assert_eq!(open.inner(Rect::new(0, 0, 10, 4)), Rect::new(0, 1, 10, 3));
    }

    #[test]
    fn paragraph_renders_inside_its_block() {
        let para =
            Paragraph::new(["hello"]).block(Block::default().title(" aw ").borders(Borders::ALL));
        assert!(plain(para, 12, 3).contains("│hello"));
    }

    #[test]
    fn table_aligns_columns_and_clips_cells() {
        let table = Table::new(
            [Row::new(["aa", "bbbbbb"]), Row::new(["c", "d"])],
            [Constraint::Length(3), Constraint::Length(4)],
        )
        .header(Row::new(["H1", "H2"]));
        assert_eq!(plain(table, 10, 3), "H1  H2\naa  bbbb\nc   d");
    }

    #[test]
    fn sparkline_scales_bars_to_the_window_max() {
        let spark = Sparkline::new([0.0, 1.0, 4.0, 8.0]);
        assert_eq!(plain(spark, 4, 1), " ▁▄█");
    }

    #[test]
    fn sparkline_scrolls_to_the_most_recent_samples() {
        let spark = Sparkline::new([8.0, 8.0, 8.0, 1.0, 2.0]);
        assert_eq!(plain(spark, 2, 1), "▄█");
    }

    #[test]
    fn tabs_bracket_the_selection() {
        let tabs = Tabs::new(["Power", "Latency"]).select(1);
        assert_eq!(plain(tabs, 24, 1), " Power  │ [Latency]");
    }

    #[test]
    fn shade_ramp_is_monotonic() {
        assert_eq!(shade(0.0), ' ');
        assert_eq!(shade(0.2), '░');
        assert_eq!(shade(0.5), '▒');
        assert_eq!(shade(0.7), '▓');
        assert_eq!(shade(1.0), '█');
    }
}
