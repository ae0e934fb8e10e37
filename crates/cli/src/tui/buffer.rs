//! The off-screen cell grid widgets draw into, with plain-text and
//! ANSI serializers.

use super::geometry::Rect;
use super::style::Style;

/// One terminal cell: a character plus its style.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Cell {
    /// The glyph occupying the cell.
    pub symbol: char,
    /// How the glyph is drawn.
    pub style: Style,
}

impl Default for Cell {
    fn default() -> Self {
        Cell { symbol: ' ', style: Style::default() }
    }
}

/// A rectangular grid of [`Cell`]s — the render target for every
/// widget. Draw a frame into a buffer, then serialize it once with
/// [`Buffer::to_plain_text`] (headless/golden tests) or
/// [`Buffer::to_ansi`] (live terminal).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Buffer {
    area: Rect,
    cells: Vec<Cell>,
}

impl Buffer {
    /// A buffer of spaces covering `area`.
    #[must_use]
    pub(crate) fn empty(area: Rect) -> Self {
        Buffer { area, cells: vec![Cell::default(); area.area() as usize] }
    }

    fn index_of(&self, x: u16, y: u16) -> Option<usize> {
        if x < self.area.x || y < self.area.y || x >= self.area.right() || y >= self.area.bottom() {
            return None;
        }
        let dx = usize::from(x - self.area.x);
        let dy = usize::from(y - self.area.y);
        Some(dy * usize::from(self.area.width) + dx)
    }

    /// Writes one cell; out-of-bounds writes are clipped silently.
    pub(crate) fn set(&mut self, x: u16, y: u16, symbol: char, style: Style) {
        if let Some(i) = self.index_of(x, y) {
            self.cells[i] = Cell { symbol, style };
        }
    }

    /// Writes a string left to right starting at `(x, y)`, clipping at
    /// the buffer edge. Returns the column after the last written cell.
    pub(crate) fn set_string(&mut self, x: u16, y: u16, string: &str, style: Style) -> u16 {
        let mut col = x;
        for symbol in string.chars() {
            if col >= self.area.right() {
                break;
            }
            self.set(col, y, symbol, style);
            col = col.saturating_add(1);
        }
        col
    }

    /// The frame as plain text: rows joined by `\n`, styles dropped,
    /// trailing spaces trimmed from every row. This is the headless
    /// (`--headless`) and golden-test serialization — byte-stable
    /// because it contains nothing but the glyphs.
    #[must_use]
    pub(crate) fn to_plain_text(&self) -> String {
        let width = usize::from(self.area.width);
        let mut out = String::with_capacity(self.cells.len() + usize::from(self.area.height));
        for (row, chunk) in self.cells.chunks(width.max(1)).enumerate() {
            if row > 0 {
                out.push('\n');
            }
            let last = chunk.iter().rposition(|c| c.symbol != ' ').map_or(0, |i| i + 1);
            for cell in &chunk[..last] {
                out.push(cell.symbol);
            }
        }
        out
    }

    /// The frame as ANSI-styled text for a live terminal: rows joined by
    /// `\r\n` (raw-mode friendly), each style change emitted once, and a
    /// final attribute reset.
    #[must_use]
    pub(crate) fn to_ansi(&self) -> String {
        let width = usize::from(self.area.width);
        let mut out = String::with_capacity(self.cells.len() * 2);
        let mut current: Option<Style> = None;
        for (row, chunk) in self.cells.chunks(width.max(1)).enumerate() {
            if row > 0 {
                out.push_str("\r\n");
            }
            for cell in chunk {
                if current != Some(cell.style) {
                    out.push_str(&cell.style.sgr());
                    current = Some(cell.style);
                }
                out.push(cell.symbol);
            }
        }
        out.push_str("\x1b[0m");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tui::style::Color;

    #[test]
    fn set_string_clips_at_the_right_edge() {
        let mut buf = Buffer::empty(Rect::new(0, 0, 5, 1));
        buf.set_string(3, 0, "abcdef", Style::default());
        assert_eq!(buf.to_plain_text(), "   ab");
    }

    #[test]
    fn plain_text_trims_trailing_spaces_per_row() {
        let mut buf = Buffer::empty(Rect::new(0, 0, 6, 2));
        buf.set_string(0, 0, "hi", Style::default());
        buf.set_string(2, 1, "yo", Style::default());
        assert_eq!(buf.to_plain_text(), "hi\n  yo");
    }

    #[test]
    fn out_of_bounds_writes_are_ignored() {
        let mut buf = Buffer::empty(Rect::new(2, 2, 2, 2));
        buf.set(0, 0, 'x', Style::default());
        buf.set(4, 2, 'x', Style::default());
        assert_eq!(buf.to_plain_text(), "\n");
    }

    #[test]
    fn ansi_emits_style_changes_once_and_resets() {
        let mut buf = Buffer::empty(Rect::new(0, 0, 3, 1));
        let red = Style::default().fg(Color::Red);
        buf.set(0, 0, 'a', red);
        buf.set(1, 0, 'b', red);
        buf.set(2, 0, 'c', Style::default());
        assert_eq!(buf.to_ansi(), "\x1b[0;31mab\x1b[0mc\x1b[0m");
    }
}
