//! Runs every experiment in `rap_experiments::EXPERIMENTS`.

fn main() {
    let settings = rap_experiments::Settings::default();
    for (_, run) in rap_experiments::EXPERIMENTS {
        let figure = run(&settings);
        print!("{figure}");
        match rap_experiments::save_results(&figure) {
            Ok(path) => println!("json written to {}", path.display()),
            Err(e) => eprintln!("could not write results: {e}"),
        }
        println!();
    }
}
