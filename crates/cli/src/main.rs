//! `drtm-shell`: an interactive shell over a simulated DrTM+R cluster.
//!
//! ```text
//! drtm-shell                # interactive REPL on a terminal
//! drtm-shell script.drtm    # run a command file, then exit
//! ... | drtm-shell          # run piped commands, then exit
//! ```
//!
//! A script or pipe stops at its first failed command and exits
//! nonzero; the interactive REPL reports the error and carries on.

use std::io::{BufReader, IsTerminal};

use drtm_cli::{run_lines, Shell};

fn main() {
    let mut shell = Shell::new();
    drtm_base::shutdown::install();

    let ok = match std::env::args().nth(1) {
        Some(path) => match std::fs::File::open(&path) {
            Ok(f) => run_lines(&mut shell, BufReader::new(f), false),
            Err(e) => {
                eprintln!("cannot open {path}: {e}");
                std::process::exit(1);
            }
        },
        None => {
            let interactive = std::io::stdin().is_terminal();
            if interactive {
                println!("drtm-shell — type `help` for commands");
            }
            run_lines(&mut shell, std::io::stdin().lock(), interactive)
        }
    };

    // Graceful SIGINT/SIGTERM: surface a final scrape of whatever
    // cluster was live so an interrupted session still reports.
    if drtm_base::shutdown::requested() {
        if let Some(out) = shell.final_scrape() {
            eprintln!("drtm-shell: interrupted — final stats:");
            println!("{out}");
        }
    }
    if !ok {
        std::process::exit(1);
    }
}
