//! Frame presentation: a live ANSI terminal backend (alternate screen,
//! raw mode via `stty`, keyboard polling).

use std::io::{self, Read, Write};
use std::process::{Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread;
use std::time::Duration;

use super::buffer::Buffer;
use super::geometry::Rect;

/// Runs `stty` against the controlling terminal, ignoring failures —
/// raw mode is best-effort (inside a pipe there is nothing to
/// configure). `stty` acts on its *stdin*, which `Command::output()`
/// would otherwise silently point at `/dev/null` — it must inherit
/// ours to reach the terminal.
fn stty(args: &[&str]) -> Option<String> {
    let out = Command::new("stty").args(args).stdin(Stdio::inherit()).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// A live terminal backend: switches to the alternate screen, hides
/// the cursor, puts the terminal in raw mode (via `stty`, restored on
/// drop), and repaints in place from the home position.
#[derive(Debug)]
pub(crate) struct AnsiBackend {
    area: Rect,
    saved_stty: Option<String>,
    out: io::Stdout,
}

impl AnsiBackend {
    /// Takes over the terminal. `fallback` is the frame size used when
    /// the real size cannot be queried.
    ///
    /// When raw mode cannot be entered (stdin is a pipe, or `stty` is
    /// missing) the backend still works, but keys stay line-buffered
    /// and echoed — a warning is printed on stderr instead of failing
    /// silently. Scripted runs should prefer a headless mode over an
    /// un-raw interactive terminal.
    ///
    /// # Errors
    ///
    /// Fails only if the initial escape sequences cannot be written.
    pub(crate) fn new(fallback: (u16, u16)) -> io::Result<Self> {
        let saved_stty = stty(&["-g"]);
        if stty(&["raw", "-echo"]).is_none() {
            eprintln!(
                "watch: cannot enter raw mode (stdin is not a terminal, or `stty` is \
                 unavailable); keys will be line-buffered and echoed — press Enter after \
                 each key, or use --headless for scripted runs"
            );
        }
        let size = stty(&["size"]).and_then(|s| {
            let mut it = s.split_whitespace();
            let rows: u16 = it.next()?.parse().ok()?;
            let cols: u16 = it.next()?.parse().ok()?;
            Some((cols, rows))
        });
        let (width, height) = size.unwrap_or(fallback);
        let mut out = io::stdout();
        // Alternate screen + hidden cursor; both restored on drop.
        write!(out, "\x1b[?1049h\x1b[?25l\x1b[2J")?;
        out.flush()?;
        Ok(AnsiBackend { area: Rect::new(0, 0, width, height), saved_stty, out })
    }

    /// The drawable area frames should be built for.
    pub(crate) fn size(&self) -> Rect {
        self.area
    }

    /// Presents one finished frame, repainting from the home position.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the terminal.
    pub(crate) fn present(&mut self, frame: &Buffer) -> io::Result<()> {
        write!(self.out, "\x1b[H{}", frame.to_ansi())?;
        self.out.flush()
    }
}

impl Drop for AnsiBackend {
    fn drop(&mut self) {
        let _ = write!(self.out, "\x1b[0m\x1b[?25h\x1b[?1049l");
        let _ = self.out.flush();
        match &self.saved_stty {
            Some(saved) => {
                let _ = stty(&[saved]);
            }
            None => {
                let _ = stty(&["sane"]);
            }
        }
    }
}

/// Non-blocking keyboard input: a reader thread pulls bytes off stdin
/// and the UI loop polls them with a timeout. The thread parks on the
/// blocking read and exits with the process — std-only terminals have
/// no portable non-blocking stdin.
#[derive(Debug)]
pub(crate) struct KeyReader {
    rx: Receiver<u8>,
}

impl KeyReader {
    /// Spawns the stdin reader thread.
    #[must_use]
    pub(crate) fn spawn() -> Self {
        let (tx, rx) = mpsc::channel();
        thread::Builder::new()
            .name("watch-keys".into())
            .spawn(move || {
                let mut stdin = io::stdin();
                let mut byte = [0u8; 1];
                while let Ok(1) = stdin.read(&mut byte) {
                    if tx.send(byte[0]).is_err() {
                        break;
                    }
                }
            })
            .expect("spawning the key reader thread failed");
        KeyReader { rx }
    }

    /// Waits up to `timeout` for one key byte.
    #[must_use]
    pub(crate) fn poll(&self, timeout: Duration) -> Option<u8> {
        self.rx.recv_timeout(timeout).ok()
    }
}
