//! CLI command implementations.

pub mod figures;
pub mod generate;
pub mod place;
pub mod serve;
pub mod simulate;
pub mod snapshot;
pub mod stream;

use crate::args::Args;
use crate::CliError;
use rap_core::{BuildOptions, PlacementError, UtilityKind};

/// The scenario-build options for a `--threads N` value (0 = every core).
/// `place` and `stream` build through the plan `snapshot save` uses too,
/// which keeps small instances on one thread whatever `N` is.
pub(crate) fn build_options(threads: usize) -> BuildOptions {
    BuildOptions {
        threads: (threads > 0).then_some(threads),
        ..BuildOptions::default()
    }
}

/// A scenario-build failure as the commands report it: routing errors keep
/// the traffic variant, whose text carries no `traffic error:` prefix.
pub(crate) fn build_error(e: PlacementError) -> CliError {
    match e {
        PlacementError::Traffic(e) => CliError::Traffic(e),
        e => CliError::Placement(e),
    }
}

/// Parses `--utility` (`default` when absent) and `--d`, the detour
/// threshold in feet (2,500 when absent), shared by every command that
/// instantiates a utility.
///
/// # Errors
///
/// [`CliError::Usage`] for an unknown utility or a zero `--d`: every
/// utility needs a positive threshold.
pub(crate) fn utility_and_threshold(
    args: &Args,
    default: &str,
) -> Result<(UtilityKind, u64), CliError> {
    let utility = match args.get("utility").unwrap_or(default) {
        "threshold" => UtilityKind::Threshold,
        "linear" => UtilityKind::Linear,
        "sqrt" => UtilityKind::Sqrt,
        other => {
            return Err(CliError::Usage(format!(
                "unknown utility `{other}` (expected threshold, linear, or sqrt)"
            )))
        }
    };
    let d: u64 = args.get_or("d", "feet", 2_500)?;
    if d == 0 {
        return Err(CliError::Usage(
            "--d must be a positive number of feet".into(),
        ));
    }
    Ok((utility, d))
}
