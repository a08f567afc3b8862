package nn

// RaceEnabled exposes raceEnabled to the external test package.
const RaceEnabled = raceEnabled

// InputTable exposes inputTable to the external test package.
var InputTable = inputTable

// BuildTestNet exposes buildTestNet to the external test package.
var BuildTestNet = buildTestNet
