//! Colors and text attributes, rendered as ANSI SGR sequences.

use std::fmt::Write as _;

/// The ANSI foreground colors the cockpit draws with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Color {
    /// ANSI red.
    Red,
    /// ANSI green.
    Green,
    /// ANSI yellow.
    Yellow,
    /// ANSI blue.
    Blue,
    /// ANSI magenta.
    Magenta,
    /// ANSI cyan.
    Cyan,
}

impl Color {
    /// The SGR parameter selecting this foreground color.
    fn fg_code(self) -> u8 {
        match self {
            Color::Red => 31,
            Color::Green => 32,
            Color::Yellow => 33,
            Color::Blue => 34,
            Color::Magenta => 35,
            Color::Cyan => 36,
        }
    }
}

/// A cell's visual attributes. `Default` is the terminal's own style.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Style {
    /// Foreground color, if overridden.
    pub fg: Option<Color>,
    /// Bold / increased intensity.
    pub bold: bool,
    /// Dim / decreased intensity.
    pub dim: bool,
    /// Swap foreground and background.
    pub reversed: bool,
}

impl Style {
    /// Sets the foreground color.
    #[must_use]
    pub(crate) fn fg(mut self, color: Color) -> Self {
        self.fg = Some(color);
        self
    }

    /// Enables bold.
    #[must_use]
    pub(crate) fn bold(mut self) -> Self {
        self.bold = true;
        self
    }

    /// Enables dim.
    #[must_use]
    pub(crate) fn dim(mut self) -> Self {
        self.dim = true;
        self
    }

    /// Enables reverse video.
    #[must_use]
    pub(crate) fn reversed(mut self) -> Self {
        self.reversed = true;
        self
    }

    /// The full SGR sequence selecting this style from a reset state,
    /// starting with `ESC[0m`. Empty styles render as a bare reset.
    #[must_use]
    pub(crate) fn sgr(&self) -> String {
        let mut out = String::from("\x1b[0");
        if self.bold {
            out.push_str(";1");
        }
        if self.dim {
            out.push_str(";2");
        }
        if self.reversed {
            out.push_str(";7");
        }
        if let Some(fg) = self.fg {
            write!(out, ";{}", fg.fg_code()).expect("writing to String cannot fail");
        }
        out.push('m');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_style_is_a_bare_reset() {
        assert_eq!(Style::default().sgr(), "\x1b[0m");
    }

    #[test]
    fn full_style_orders_attributes_then_colors() {
        let style = Style::default().bold().reversed().fg(Color::Yellow);
        assert_eq!(style.sgr(), "\x1b[0;1;7;33m");
    }
}
