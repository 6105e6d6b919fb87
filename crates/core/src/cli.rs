//! The command-line front end: a drop-in analogue of the original
//! `cas-offinder <input> <device> [output]` tool.
//!
//! The input file follows the upstream format (see [`crate::SearchInput`]),
//! except that the genome line may also name a built-in synthetic assembly:
//!
//! * `hg19-mini` / `hg38-mini` — the paper's datasets at 10% scale;
//! * `hg19-mini:0.02` — an explicit scale;
//! * any other value — a path to a FASTA file or a directory of FASTA
//!   files, like the original tool.

use std::fmt;
use std::path::Path;

use genome::fasta::{self, ParseOptions};
use genome::Assembly;
use gpu_sim::DeviceSpec;

use crate::pipeline::{self, PipelineConfig};
use crate::report::{Api, SearchReport};
use crate::{InputError, OptLevel, SearchInput};

/// Errors surfaced by the command-line front end.
#[derive(Debug)]
#[non_exhaustive]
pub enum CliError {
    /// Wrong usage (bad flags, missing arguments).
    Usage(String),
    /// The input file did not parse.
    Input(InputError),
    /// The genome could not be loaded.
    Genome(String),
    /// A pipeline failed.
    Pipeline(String),
    /// Filesystem failure.
    Io(std::io::Error),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Input(e) => write!(f, "input file: {e}"),
            CliError::Genome(m) => write!(f, "genome: {m}"),
            CliError::Pipeline(m) => write!(f, "pipeline: {m}"),
            CliError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<InputError> for CliError {
    fn from(e: InputError) -> Self {
        CliError::Input(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq)]
pub struct CliOptions {
    /// Path to the input file.
    pub input_path: String,
    /// Optional output path (stdout when `None`).
    pub output_path: Option<String>,
    /// Which host application to run.
    pub api: Api,
    /// Device name (`Radeon VII`, `MI60`, `MI100`).
    pub device: String,
    /// Comparer optimization stage.
    pub opt: OptLevel,
    /// Chunk size in scan positions.
    pub chunk_size: usize,
}

impl Default for CliOptions {
    fn default() -> Self {
        CliOptions {
            input_path: String::new(),
            output_path: None,
            api: Api::Sycl,
            device: "MI100".to_owned(),
            opt: OptLevel::Opt3,
            chunk_size: 1 << 20,
        }
    }
}

/// Usage text for the binary.
pub const USAGE: &str = "usage: cas-offinder <input-file> [output-file] \
[--api sycl|opencl] [--device <name>] [--opt base|opt1|opt2|opt3|opt4] [--chunk N]";

/// Parse command-line arguments (excluding `argv[0]`).
///
/// # Errors
///
/// Returns [`CliError::Usage`] on malformed arguments.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<CliOptions, CliError> {
    let mut opts = CliOptions::default();
    let mut positional = Vec::new();
    let mut iter = args.into_iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--api" => {
                let v = iter
                    .next()
                    .ok_or_else(|| CliError::Usage("--api needs a value".into()))?;
                opts.api = match v.as_str() {
                    "sycl" => Api::Sycl,
                    "opencl" | "ocl" => Api::OpenCl,
                    other => {
                        return Err(CliError::Usage(format!("unknown api {other:?}")));
                    }
                };
            }
            "--device" => {
                opts.device = iter
                    .next()
                    .ok_or_else(|| CliError::Usage("--device needs a value".into()))?;
            }
            "--opt" => {
                let v = iter
                    .next()
                    .ok_or_else(|| CliError::Usage("--opt needs a value".into()))?;
                opts.opt = OptLevel::ALL
                    .into_iter()
                    .find(|o| o.label() == v)
                    .ok_or_else(|| CliError::Usage(format!("unknown opt level {v:?}")))?;
            }
            "--chunk" => {
                let v = iter
                    .next()
                    .ok_or_else(|| CliError::Usage("--chunk needs a value".into()))?;
                opts.chunk_size = v
                    .parse()
                    .map_err(|_| CliError::Usage(format!("bad chunk size {v:?}")))?;
            }
            flag if flag.starts_with("--") => {
                return Err(CliError::Usage(format!("unknown flag {flag:?}")));
            }
            _ => positional.push(a),
        }
    }
    match positional.len() {
        0 => return Err(CliError::Usage("an input file is required".into())),
        1 => opts.input_path = positional.remove(0),
        2 => {
            opts.input_path = positional.remove(0);
            opts.output_path = Some(positional.remove(0));
        }
        n => {
            return Err(CliError::Usage(format!(
                "{n} positional arguments, expected 1-2"
            )))
        }
    }
    Ok(opts)
}

/// Resolve the input's genome field to an assembly: a built-in miniature
/// (optionally with `:scale`) or a FASTA file/directory on disk.
///
/// # Errors
///
/// Returns [`CliError::Genome`] when nothing can be loaded.
pub fn resolve_genome(spec: &str) -> Result<Assembly, CliError> {
    let (name, scale) = match spec.split_once(':') {
        Some((n, s)) => {
            let scale: f64 = s
                .parse()
                .map_err(|_| CliError::Genome(format!("bad scale {s:?} in {spec:?}")))?;
            (n, scale)
        }
        None => (spec, 0.1),
    };
    match name {
        "hg19-mini" => return Ok(genome::synth::hg19_mini(scale)),
        "hg38-mini" => return Ok(genome::synth::hg38_mini(scale)),
        _ => {}
    }

    let path = Path::new(spec);
    if path.is_file() {
        return load_fasta_file(path);
    }
    if path.is_dir() {
        let mut assembly = Assembly::new(spec.to_owned());
        let mut entries: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| CliError::Genome(format!("cannot read directory {spec:?}: {e}")))?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                matches!(
                    p.extension().and_then(|e| e.to_str()),
                    Some("fa" | "fasta" | "fna")
                )
            })
            .collect();
        entries.sort();
        if entries.is_empty() {
            return Err(CliError::Genome(format!("no FASTA files in {spec:?}")));
        }
        for file in entries {
            let sub = load_fasta_file(&file)?;
            assembly.extend(sub.chromosomes().iter().cloned());
        }
        return Ok(assembly);
    }
    Err(CliError::Genome(format!(
        "{spec:?} is neither a built-in assembly (hg19-mini, hg38-mini) nor a FASTA path"
    )))
}

fn load_fasta_file(path: &Path) -> Result<Assembly, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Genome(format!("cannot read {}: {e}", path.display())))?;
    let records = fasta::parse_str(&text, ParseOptions { strict: false })
        .map_err(|e| CliError::Genome(format!("{}: {e}", path.display())))?;
    Ok(Assembly::from_records(path.display().to_string(), records))
}

/// Run a search per the options over already-parsed input and assembly.
///
/// # Errors
///
/// Returns [`CliError`] on unknown devices or pipeline failures.
pub fn run_search(
    options: &CliOptions,
    assembly: &Assembly,
    input: &SearchInput,
) -> Result<SearchReport, CliError> {
    let spec = DeviceSpec::paper_devices()
        .into_iter()
        .find(|d| d.name.eq_ignore_ascii_case(&options.device))
        .ok_or_else(|| {
            CliError::Genome(format!(
                "unknown device {:?}; available: Radeon VII, MI60, MI100",
                options.device
            ))
        })?;
    let config = PipelineConfig::new(spec)
        .chunk_size(options.chunk_size)
        .opt(options.opt);
    match options.api {
        Api::OpenCl => pipeline::ocl::run(assembly, input, &config)
            .map_err(|e| CliError::Pipeline(e.to_string())),
        Api::Sycl => pipeline::sycl::run(assembly, input, &config)
            .map_err(|e| CliError::Pipeline(e.to_string())),
    }
}

/// Render the report in the original tool's tab-separated output format,
/// with trailing summary comments (statistics and timing).
pub fn render_output(report: &SearchReport) -> String {
    let mut out = String::new();
    for hit in &report.offtargets {
        out.push_str(&hit.to_line());
        out.push('\n');
    }
    let stats = crate::stats::SearchStats::from_hits(&report.offtargets);
    for line in stats.to_string().lines() {
        out.push_str("# ");
        out.push_str(line);
        out.push('\n');
    }
    out.push_str(&format!(
        "# {} on {}; {}\n",
        report.api, report.device, report.timing
    ));
    out
}

/// The whole front end: parse args, load everything, search, and return
/// the rendered output (also written to `output_path` when set).
///
/// # Errors
///
/// Returns [`CliError`] for any failure along the way.
pub fn run<I: IntoIterator<Item = String>>(args: I) -> Result<String, CliError> {
    let options = parse_args(args)?;
    let text = std::fs::read_to_string(&options.input_path)?;
    let input = SearchInput::parse(&text)?;
    let assembly = resolve_genome(&input.genome)?;
    let report = run_search(&options, &assembly, &input)?;
    let rendered = render_output(&report);
    if let Some(path) = &options.output_path {
        std::fs::write(path, &rendered)?;
    }
    Ok(rendered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_args_full() {
        let opts = parse_args(
            [
                "in.txt", "out.txt", "--api", "opencl", "--device", "MI60", "--opt", "opt2",
                "--chunk", "4096",
            ]
            .map(String::from),
        )
        .unwrap();
        assert_eq!(opts.input_path, "in.txt");
        assert_eq!(opts.output_path.as_deref(), Some("out.txt"));
        assert_eq!(opts.api, Api::OpenCl);
        assert_eq!(opts.device, "MI60");
        assert_eq!(opts.opt, OptLevel::Opt2);
        assert_eq!(opts.chunk_size, 4096);
    }

    #[test]
    fn parse_args_rejects_nonsense() {
        assert!(matches!(
            parse_args(Vec::<String>::new()),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["a", "b", "c"].map(String::from)),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["in", "--api", "cuda"].map(String::from)),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["in", "--frobnicate"].map(String::from)),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["in", "--opt", "opt9"].map(String::from)),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn resolve_builtin_genomes_with_scale() {
        let a = resolve_genome("hg19-mini:0.004").unwrap();
        assert_eq!(a.name(), "hg19-mini");
        assert!(a.total_len() < 50_000);
        let b = resolve_genome("hg38-mini:0.004").unwrap();
        assert!(b.total_len() > a.total_len());
        assert!(matches!(
            resolve_genome("hg19-mini:fast"),
            Err(CliError::Genome(_))
        ));
        assert!(matches!(resolve_genome("mm39"), Err(CliError::Genome(_))));
    }

    #[test]
    fn resolve_fasta_file_and_directory() {
        let dir = std::env::temp_dir().join(format!("casoff-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a.fa"), ">chrA\nACGTACGTAGG\n").unwrap();
        std::fs::write(dir.join("b.fasta"), ">chrB\nTTTTACGT\n").unwrap();
        std::fs::write(dir.join("ignored.txt"), "not fasta").unwrap();

        let single = resolve_genome(dir.join("a.fa").to_str().unwrap()).unwrap();
        assert_eq!(single.chromosomes().len(), 1);
        assert_eq!(single.chromosomes()[0].name, "chrA");

        let multi = resolve_genome(dir.to_str().unwrap()).unwrap();
        assert_eq!(multi.chromosomes().len(), 2);
        assert_eq!(multi.total_len(), 11 + 8);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn end_to_end_run_produces_real_hits() {
        let dir = std::env::temp_dir().join(format!("casoff-cli-e2e-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let input_path = dir.join("input.txt");
        std::fs::write(
            &input_path,
            "hg38-mini:0.005\nNNNNNNNNNNNNNNNNNNNNNRG\nGGCCGACCTGTCGCTGACGCNNN 5\n",
        )
        .unwrap();
        let out_path = dir.join("out.txt");

        let rendered = run([
            input_path.to_str().unwrap().to_owned(),
            out_path.to_str().unwrap().to_owned(),
            "--chunk".to_owned(),
            "16384".to_owned(),
        ])
        .unwrap();
        assert!(rendered.lines().count() > 1, "hits + summary expected");
        assert!(rendered.contains("GGCCGACCTGTCGCTGACGC"));
        assert_eq!(std::fs::read_to_string(&out_path).unwrap(), rendered);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn opencl_and_sycl_cli_paths_agree() {
        let dir = std::env::temp_dir().join(format!("casoff-cli-agree-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let input_path = dir.join("input.txt");
        std::fs::write(
            &input_path,
            "hg19-mini:0.004\nNNNNNNNNNNNNNNNNNNNNNRG\nCGCCAGCGTCAGCGACAGGTNNN 4\n",
        )
        .unwrap();
        let base = [
            input_path.to_str().unwrap().to_owned(),
            "--chunk".into(),
            "8192".into(),
        ];
        let sycl = run(base.clone()).unwrap();
        let ocl = run([&base[..], &["--api".to_owned(), "opencl".to_owned()]].concat()).unwrap();
        // Hits identical; only the summary line (api name, timing) differs.
        let hits = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with('#'))
                .map(String::from)
                .collect::<Vec<_>>()
        };
        assert_eq!(hits(&sycl), hits(&ocl));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_device_is_reported() {
        let options = CliOptions {
            device: "H100".into(),
            ..CliOptions::default()
        };
        let assembly = genome::synth::hg19_mini(0.002);
        let input = SearchInput::canonical_example("hg19-mini");
        assert!(matches!(
            run_search(&options, &assembly, &input),
            Err(CliError::Genome(_))
        ));
    }
}
