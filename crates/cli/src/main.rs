//! The `agilewatts` binary: parse arguments, dispatch, report errors.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match aw_cli::parse_cli(&args) {
        Ok((command, common)) => {
            common.apply();
            match aw_cli::execute_with(&command, &common) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{}", aw_cli::usage());
            ExitCode::FAILURE
        }
    }
}
