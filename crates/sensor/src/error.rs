use snappix_ce::CeError;
use snappix_tensor::TensorError;
use std::fmt;

/// Error type for the sensor simulator.
#[derive(Debug)]
pub enum SensorError {
    /// An underlying tensor operation failed.
    Tensor(TensorError),
    /// A coded-exposure component (mask validation) failed.
    Ce(CeError),
    /// The sensor geometry is invalid (zero extents, tile not dividing the
    /// array).
    Geometry {
        /// Human-readable description of the problem.
        context: String,
    },
    /// The stimulus video does not match the sensor (wrong resolution or
    /// slot count).
    Stimulus {
        /// Human-readable description of the problem.
        context: String,
    },
    /// A readout's ADC depth lies outside
    /// [`ReadoutConfig::ADC_BITS`](crate::ReadoutConfig::ADC_BITS).
    AdcBits {
        /// The rejected depth.
        bits: u32,
    },
}

impl fmt::Display for SensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SensorError::Tensor(e) => write!(f, "tensor error: {e}"),
            SensorError::Ce(e) => write!(f, "coded-exposure error: {e}"),
            SensorError::Geometry { context } => write!(f, "invalid geometry: {context}"),
            SensorError::Stimulus { context } => write!(f, "invalid stimulus: {context}"),
            SensorError::AdcBits { bits } => write!(
                f,
                "unsupported ADC depth: {bits} bits (supported: {}..={})",
                crate::ReadoutConfig::ADC_BITS.start(),
                crate::ReadoutConfig::ADC_BITS.end()
            ),
        }
    }
}

impl std::error::Error for SensorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SensorError::Tensor(e) => Some(e),
            SensorError::Ce(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for SensorError {
    fn from(e: TensorError) -> Self {
        SensorError::Tensor(e)
    }
}

impl From<CeError> for SensorError {
    fn from(e: CeError) -> Self {
        SensorError::Ce(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e: SensorError = TensorError::InvalidArgument {
            context: "x".into(),
        }
        .into();
        assert!(e.to_string().contains("tensor"));
        assert!(std::error::Error::source(&e).is_some());
        let g = SensorError::Geometry {
            context: "tile".into(),
        };
        assert!(g.to_string().contains("tile"));
        let adc = SensorError::AdcBits { bits: 0 };
        assert!(adc.to_string().contains("0 bits"));
        assert!(std::error::Error::source(&adc).is_none());
    }
}
