class K02 {
    int pick(int a, int b) {
        int m = a + b;
        if (a == b) {
            m = a * 2;
        } else if (a != b) {
            m = b;
        }
        switch (m) {
            case 0:
                m = 1;
                break;
            default:
                break;
        }
        return a > b ? m : -m;
    }
}
