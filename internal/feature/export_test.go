package feature

// AnalysisModel lets the external tests in this directory, which reach the
// model's sampler and counter through internal/configure, use analysisModel.
var AnalysisModel = analysisModel
