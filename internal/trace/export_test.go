package trace

import "io"

// newStreamReaderBlock is NewStreamReader with the serial read path's block
// set to block records (1 to readBlockRecords), so small inputs exercise
// frames that span many blocks. The block size is fixed outside tests.
func newStreamReaderBlock(r io.Reader, block int) (*StreamReader, error) {
	sr, err := NewStreamReader(r)
	if err != nil {
		return nil, err
	}
	sr.block = block
	return sr, nil
}
