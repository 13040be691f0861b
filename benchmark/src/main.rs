#![forbid(unsafe_code)]

fn main() -> std::process::ExitCode {
    srsf_benchmark::cli::main()
}
