//! A zero-dependency terminal UI toolkit: the rendering layer behind
//! `watch`, the live fleet cockpit.
//!
//! The API deliberately mirrors the ratatui idiom — `Layout` splits,
//! `Block`/`Paragraph`/`Table`/`Sparkline`/`Tabs` widgets rendering
//! into a cell [`Buffer`] — but is implemented entirely on raw ANSI
//! escape sequences, because this workspace vendors no external crates.
//! A live run presents frames through [`AnsiBackend`] (alternate screen,
//! hidden cursor, raw mode via `stty`, restored on drop); `--headless`
//! prints [`Buffer::to_plain_text`] instead.

mod buffer;
mod geometry;
mod style;
mod terminal;
mod widgets;

pub(crate) use buffer::Buffer;
pub(crate) use geometry::{Constraint, Layout, Rect};
pub(crate) use style::{Color, Style};
pub(crate) use terminal::{AnsiBackend, KeyReader};
pub(crate) use widgets::{shade, Block, Borders, Paragraph, Row, Sparkline, Table, Tabs, Widget};
