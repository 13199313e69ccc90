package flatez

// MatchOracle is for the external tests, which need pages from webgen
// (an importer of this package).
var MatchOracle = matchOracle
