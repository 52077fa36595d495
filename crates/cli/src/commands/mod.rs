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
use rap_core::UtilityKind;

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
